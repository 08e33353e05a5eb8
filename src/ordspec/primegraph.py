"""Group orders, prime graphs and cocliques.

The prime graph of a finite group has the primes dividing the group order
as vertices, with r adjacent to s when the group has an element of order
rs.  Orders come from the classical formulas, factored through cyclotomic
values so the numbers being factored stay small; adjacency comes from the
divisor-generator representation of the spectrum.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

from . import arith, spectra
from .errors import DomainError, UnsupportedError, UsageError
from .spectra import FULL, GroupId, SpectrumGens


def _factor_qn_minus_1(q: int, n: int, into: Counter) -> None:
    for d in arith.divisors(n):
        for r, e in arith.factorize(arith.cyclotomic_value(d, q)).factors.items():
            into[r] += e


def _factor_qn_plus_1(q: int, n: int, into: Counter) -> None:
    # q^n + 1 = (q^2n - 1)/(q^n - 1): the cyclotomic pieces at divisors
    # of 2n that do not divide n.
    for d in arith.divisors(2 * n):
        if n % d != 0:
            for r, e in arith.factorize(arith.cyclotomic_value(d, q)).factors.items():
                into[r] += e


def group_order(group: GroupId) -> arith.Factorization:
    """The order of the (simple, or for GO8- the full orthogonal) group."""
    n, q, p, m = group.n, group.q, group.p, group.m
    fact: Counter = Counter()
    if group.family in (spectra.SP, spectra.BN):
        fact[p] += m * n * n
        for i in range(1, n + 1):
            _factor_qn_minus_1(q, 2 * i, fact)
        denom = 2 if p != 2 else 1
    else:
        eps = 1 if group.family in (spectra.DPLUS, spectra.O8PLUS) else -1
        fact[p] += m * n * (n - 1)
        if eps == 1:
            _factor_qn_minus_1(q, n, fact)
        else:
            _factor_qn_plus_1(q, n, fact)
        for i in range(1, n):
            _factor_qn_minus_1(q, 2 * i, fact)
        denom = arith.gcd_lcm((4, q**n - eps))[0]
        if group.family == spectra.GO8MINUS:
            fact[2] += 1
    while denom > 1:
        if fact[2] < 1:
            raise AssertionError("internal: order not divisible by centre size")
        fact[2] -= 1
        denom //= 2
    factors = {r: e for r, e in fact.items() if e > 0}
    value = 1
    for r, e in factors.items():
        value *= r**e
    return arith.Factorization(value, factors)


@dataclass(frozen=True)
class PrimeGraph:
    """Vertices are primes dividing the group order; r ~ s iff the group
    has an element of order rs.  `part` restricts to the p'-spectrum, in
    which case the characteristic is not a vertex."""

    label: str
    part: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.vertices) != sorted(set(self.vertices)):
            raise DomainError("vertices must be strictly increasing")
        for r, s in self.edges:
            if r >= s or r not in self.vertices or s not in self.vertices:
                raise DomainError(f"bad edge ({r}, {s})")
        object.__setattr__(self, "edge_set", frozenset(self.edges))

    def has_vertex(self, r: int) -> bool:
        return r in self.vertices

    def adjacent(self, r: int, s: int) -> bool:
        for v in (r, s):
            if not self.has_vertex(v):
                raise DomainError(f"{v} is not a vertex of {self.label}")
        if r == s:
            return False
        return (min(r, s), max(r, s)) in self.edge_set


def graph_from_spectrum(spec: SpectrumGens, vertices) -> PrimeGraph:
    """Prime graph on the given vertices with adjacency read off a spectrum."""
    verts = tuple(sorted(set(vertices)))
    edges = tuple(
        (r, s)
        for r, s in itertools.combinations(verts, 2)
        if spectra.contains(spec, r * s)
    )
    return PrimeGraph(spec.label, spec.part, verts, edges)


def build_graph(group: GroupId, part: str = FULL) -> PrimeGraph:
    """The prime graph of the group (part = "full"), or the graph on the
    non-characteristic primes with adjacency from the p'-spectrum."""
    order = group_order(group)
    if part == FULL:
        spec = spectra.spectrum(group)
        verts = order.primes
    else:
        spec = spectra.spectrum_p_prime(group)
        verts = tuple(r for r in order.primes if r != group.p)
    return graph_from_spectrum(spec, verts)


def is_coclique(graph: PrimeGraph, primes) -> bool:
    """Whether the given vertices are pairwise nonadjacent."""
    vals = sorted(set(primes))
    for v in vals:
        if not graph.has_vertex(v):
            raise DomainError(f"{v} is not a vertex of {graph.label}")
    return all(
        not graph.adjacent(r, s) for r, s in itertools.combinations(vals, 2)
    )


def find_cocliques(graph: PrimeGraph, size: int) -> list[tuple[int, ...]]:
    """All cocliques of exactly the given size, lexicographically sorted."""
    if size < 1:
        raise DomainError(f"coclique size must be positive, got {size}")
    out = []
    for combo in itertools.combinations(graph.vertices, size):
        if all(
            (r, s) not in graph.edge_set
            for r, s in itertools.combinations(combo, 2)
        ):
            out.append(combo)
    return out


def neighbourhood(graph: PrimeGraph, r: int) -> tuple[int, ...]:
    """All vertices adjacent to r, ascending."""
    if not graph.has_vertex(r):
        raise DomainError(f"{r} is not a vertex of {graph.label}")
    return tuple(s for s in graph.vertices if s != r and graph.adjacent(r, s))


def export_graph(graph: PrimeGraph) -> str:
    """Canonical JSON form."""
    obj = {
        "label": graph.label,
        "part": graph.part,
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in graph.edges],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_graph(text: str) -> PrimeGraph:
    try:
        obj = json.loads(text)
        return PrimeGraph(
            obj["label"],
            obj["part"],
            tuple(int(v) for v in obj["vertices"]),
            tuple((int(r), int(s)) for r, s in obj["edges"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed graph serialization: {exc}") from exc
