"""Group orders, prime graphs and cocliques.

The prime graph of a finite group has the primes dividing the group order
as vertices, with r adjacent to s when the group has an element of order
rs.  Orders come from the classical formulas, factored through cyclotomic
values so the numbers being factored stay small.  Adjacency is read from the
gcd of each unreduced closed-form value (spectra.spectrum_values) with the
product of the vertices; the reduction to an antichain serves
spectra.spectrum, not the graph.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from . import arith, spectra
from .errors import DomainError, UsageError
from .spectra import FULL, GroupId, SpectrumGens


def group_order(group: GroupId) -> arith.Factorization:
    """The order of the (simple, or for GO8- the full orthogonal) group.

    Each q^k - 1 and q^k + 1 in the classical formula is a product of
    cyclotomic values, so count how often each Phi_d(q) occurs and read its
    primes from arith.cyclotomic_factors.
    """
    n, q, p, m = group.n, group.q, group.p, group.m
    symplectic = group.family in (spectra.SP, spectra.BN)
    rank = n if symplectic else n - 1
    # prod_{i <= rank} (q^2i - 1): Phi_d(q) divides q^2i - 1 iff d/(d, 2) | i
    phis = Counter({d: rank // (d // math.gcd(d, 2)) for d in range(1, 2 * rank + 1)})
    if symplectic:
        denom = math.gcd(2, q - 1)
    else:
        eps = 1 if group.family in (spectra.DPLUS, spectra.O8PLUS) else -1
        # q^n - 1 takes the d dividing n, q^n + 1 the d dividing 2n but not n
        phis.update(
            d for d in range(1, 2 * n + 1)
            if 2 * n % d == 0 and (n % d == 0) == (eps == 1)
        )
        denom = math.gcd(4, q**n - eps)
    fact = Counter({p: m * n * rank})
    for d, count in phis.items():
        if count:
            for r, e in arith.cyclotomic_factors(d, q):
                fact[r] += count * e
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
    has an element of order rs.  `part` is "full", or p' for the graph of
    the p'-spectrum, in which case the characteristic p is not a vertex.
    Primality of the vertices is left to whoever supplies them (parse_graph
    checks it; build_graph reads them from a checked Factorization)."""

    label: str
    part: str
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    edge_set: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        verts = set(self.vertices)
        if list(self.vertices) != sorted(verts):
            raise DomainError("vertices must be strictly increasing")
        for r, s in self.edges:
            if r >= s or r not in verts or s not in verts:
                raise DomainError(f"bad edge ({r}, {s})")
        p = spectra.part_prime(self.part)
        if p is not None and p in self.vertices:
            raise DomainError(f"{self.part} graph has the vertex {p}")
        object.__setattr__(self, "edge_set", frozenset(self.edges))

    def adjacent(self, r: int, s: int) -> bool:
        for v in (r, s):
            if v not in self.vertices:
                raise DomainError(f"{v} is not a vertex of {self.label}")
        if r == s:
            return False
        return (min(r, s), max(r, s)) in self.edge_set


def _edges(values, verts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The pairs r < s of verts with r * s dividing some value.  r * s
    divides the product of the distinct vertices, so it divides a value
    exactly when it divides their gcd; each distinct gcd is scanned once."""
    whole = math.prod(verts)
    edges = set()
    for g in {math.gcd(v, whole) for v in values}:
        divs = [v for v in verts if g % v == 0]
        edges.update(
            (r, s) for r, s in itertools.combinations(divs, 2) if g % (r * s) == 0
        )
    return tuple(sorted(edges))


def graph_from_spectrum(spec: SpectrumGens, vertices) -> PrimeGraph:
    """Prime graph on the given vertices with adjacency read off a spectrum:
    r ~ s when r * s divides some generator."""
    verts = tuple(sorted(set(vertices)))
    if verts and verts[0] < 1:
        raise DomainError(f"vertices must be positive, got {verts[0]}")
    return PrimeGraph(spec.label, spec.part, verts, _edges(spec.gens, verts))


def build_graph(group: GroupId, part: str = FULL) -> PrimeGraph:
    """The prime graph of the group (part = "full"), or the graph on the
    non-characteristic primes with adjacency from the p'-spectrum, read off
    the part's unreduced values: r * s divides one of them exactly when it
    divides a generator of the reduced list, so no antichain is built."""
    values = spectra.spectrum_values(group, part)
    verts = group_order(group).primes
    label = FULL
    if part != FULL:
        verts = tuple(r for r in verts if r != group.p)
        label = f"{group.p}'"
    return PrimeGraph(group.name(), label, verts, _edges(values, verts))


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def find_cocliques(graph: PrimeGraph, size: int) -> list[tuple[int, ...]]:
    """All cocliques of exactly the given size, lexicographically sorted."""
    if size < 1:
        raise DomainError(f"coclique size must be positive, got {size}")
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    # later[i]: bit j set for the vertices j > i not adjacent to vertex i
    later = [(1 << len(verts)) - (2 << i) for i in range(len(verts))]
    for r, s in graph.edges:
        later[index[r]] &= ~(1 << index[s])
    # after k steps: every k-coclique, in lexicographic order, with the mask
    # of the vertices that extend it (after its last vertex, adjacent to none
    # of it)
    level = [((), (1 << len(verts)) - 1)]
    for _ in range(size - 1):
        level = [
            (combo + (verts[i],), cand & later[i])
            for combo, cand in level
            for i in _bits(cand)
        ]
    return [combo + (verts[i],) for combo, cand in level for i in _bits(cand)]


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
        graph = PrimeGraph(
            obj["label"],
            obj["part"],
            tuple(int(v) for v in obj["vertices"]),
            tuple((int(r), int(s)) for r, s in obj["edges"]),
        )
        for v in graph.vertices:
            if not arith.is_prime(v):
                raise DomainError(f"vertex {v} is not a prime")
        return graph
    except (DomainError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed graph serialization: {exc}") from exc
