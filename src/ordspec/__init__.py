"""Element-order spectra of finite simple symplectic and orthogonal
groups: closed-form generator lists, Zsigmondy primitive prime divisors,
Gruenberg-Kegel prime graphs, brute-force matrix-group oracles, and a
verification suite re-deriving the set-theoretic facts the isospectrality
classification arguments rest on.

The public names below are loaded on first access (PEP 562), so
`import ordspec` imports no submodule and each command of the CLI loads
only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("DomainError", "OrdspecError", "ResourceError", "UnsupportedError",
         "UsageError"), "errors"),
    **dict.fromkeys(
        ("PrimeGraph", "build_graph", "find_cocliques", "group_order"),
        "primegraph"),
    **dict.fromkeys(
        ("GroupId", "SpectrumGens", "contains", "equals", "group_id",
         "is_sub_spectrum", "parse_spectrum", "reduce_gens", "serialize",
         "spectrum", "spectrum_p_prime"), "spectra"),
    **dict.fromkeys(
        ("CheckReport", "Claim", "check_adjacency", "check_coclique_witness",
         "check_diff", "check_go8_equality", "check_membership",
         "default_config", "run_suite", "suite_passed"), "verify"),
    **dict.fromkeys(
        ("has_primitive_prime_divisor", "primitive_part",
         "primitive_prime_divisors"), "zsigmondy"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
