"""Element-order spectra of finite simple symplectic and orthogonal
groups: closed-form generator lists, Zsigmondy primitive prime divisors,
Gruenberg-Kegel prime graphs, brute-force matrix-group oracles, and a
verification suite re-deriving the set-theoretic facts the isospectrality
classification arguments rest on.
"""

from .errors import (
    DomainError,
    OrdspecError,
    ResourceError,
    UnsupportedError,
    UsageError,
)
from .primegraph import (
    PrimeGraph,
    build_graph,
    find_cocliques,
    group_order,
)
from .spectra import (
    GroupId,
    SpectrumGens,
    contains,
    equals,
    group_id,
    is_sub_spectrum,
    parse_spectrum,
    reduce_gens,
    serialize,
    spectrum,
    spectrum_p_prime,
)
from .verify import (
    CheckReport,
    Claim,
    check_adjacency,
    check_coclique_witness,
    check_diff,
    check_go8_equality,
    check_membership,
    default_config,
    run_suite,
    suite_passed,
)
from .zsigmondy import (
    has_primitive_prime_divisor,
    primitive_part,
    primitive_prime_divisors,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Claim",
    "DomainError",
    "GroupId",
    "OrdspecError",
    "PrimeGraph",
    "ResourceError",
    "SpectrumGens",
    "UnsupportedError",
    "UsageError",
    "build_graph",
    "check_adjacency",
    "check_coclique_witness",
    "check_diff",
    "check_go8_equality",
    "check_membership",
    "contains",
    "default_config",
    "equals",
    "find_cocliques",
    "group_id",
    "group_order",
    "has_primitive_prime_divisor",
    "is_sub_spectrum",
    "parse_spectrum",
    "primitive_part",
    "primitive_prime_divisors",
    "reduce_gens",
    "run_suite",
    "serialize",
    "spectrum",
    "spectrum_p_prime",
    "suite_passed",
]
