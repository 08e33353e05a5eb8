"""Unit tests for group orders, prime graphs, and coclique search."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from ordspec import arith, primegraph, spectra, zsigmondy
from ordspec.errors import DomainError, OrdspecError, UsageError
from ordspec.spectra import BN, DMINUS, DPLUS, GO8MINUS, O8MINUS, O8PLUS, SP


def _order_by_plain_formula(family: str, n: int, q: int) -> int:
    """The classical order formulas computed directly with big ints,
    independent of the cyclotomic-piece factoring route."""
    if family in (SP, BN):
        value = q ** (n * n)
        for i in range(1, n + 1):
            value *= q ** (2 * i) - 1
        return value // math.gcd(2, q - 1)
    eps = 1 if family in (DPLUS, O8PLUS) else -1
    value = q ** (n * (n - 1)) * (q**n - eps)
    for i in range(1, n):
        value *= q ** (2 * i) - 1
    value //= math.gcd(4, q**n - eps)
    if family == GO8MINUS:
        value *= 2
    return value


def test_orders_match_plain_formula() -> None:
    checked = 0
    for family, n, q in itertools.product(
        spectra.FAMILIES, range(2, 9), (2, 3, 4, 5, 8, 9, 16, 27)
    ):
        try:
            group = spectra.group_id(family, n, q)
        except DomainError:
            continue
        got = primegraph.group_order(group)
        assert got.value == _order_by_plain_formula(group.family, n, q), (family, n, q)
        checked += 1
    assert checked == 204


def test_group_order_and_primitive_primes_share_one_factor_table(
    monkeypatch,
) -> None:
    group = spectra.group_id(DMINUS, 5, 4)
    # q = 4 = 2^2, so each Phi_d(4) with d | 2i for i <= 4, or d | 10 and
    # d !| 5, is merged from the Phi_m(2) with m | 2d and m / (m, 2) = d
    pieces = [arith.cyclotomic_value(m, 2) for m in (1, 2, 3, 4, 6, 8, 12, 16, 20)]
    calls: Counter = Counter()
    factored: list[int] = []

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            if name == "factorize":
                factored.append(args[0])
            return real(*args)
        return wrapper

    for name in ("divisors", "factorize"):
        monkeypatch.setattr(arith, name, counted(name, getattr(arith, name)))
    arith.cyclotomic_factors.cache_clear()
    order = primegraph.group_order(group)
    # one factorization per Phi_m(2), and nothing else is factored
    assert calls["factorize"] == 9
    assert sorted(factored) == sorted(pieces)
    calls.clear()
    factored.clear()
    assert primegraph.group_order(group) == order
    assert calls == Counter()
    for k in (1, 2, 3, 4, 6, 8, 10):
        zsigmondy.primitive_prime_divisors(4, k)
    assert calls == Counter()
    # Phi_5(4) = Phi_5(2) * Phi_10(2) is no factor of |O10-(4)|, so its two
    # pieces are factored on first use
    assert zsigmondy.primitive_prime_divisors(4, 5) == (11, 31)
    assert calls["factorize"] == 2
    assert sorted(factored) == [11, 31]


def test_frozen_orders() -> None:
    assert primegraph.group_order(spectra.group_id(SP, 2, 3)).value == 25920
    assert primegraph.group_order(spectra.group_id(SP, 2, 4)).value == 979200
    assert primegraph.group_order(spectra.group_id(SP, 3, 2)).value == 1451520
    assert primegraph.group_order(spectra.group_id(O8MINUS, 4, 2)).value == 197406720
    assert primegraph.group_order(spectra.group_id(O8PLUS, 4, 2)).value == 174182400
    assert primegraph.group_order(spectra.group_id(GO8MINUS, 4, 2)).value == 394813440


def _neighbours(graph, r: int) -> tuple[int, ...]:
    """The vertices joined to r, read off the edge list."""
    return tuple(
        sorted(s if t == r else t for s, t in graph.edges if r in (s, t))
    )


def test_gk_s8_2_structure() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 4, 2))
    assert graph.vertices == (2, 3, 5, 7, 17)
    assert graph.edges == ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7))
    assert _neighbours(graph, 17) == ()
    assert primegraph.find_cocliques(graph, 3) == [(5, 7, 17)]


def test_gk_s4_3_structure() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 2, 3))
    assert graph.vertices == (2, 3, 5)
    assert graph.edges == ((2, 3),)
    assert _neighbours(graph, 5) == ()


def test_gk_o8plus_4_neighbourhood() -> None:
    graph = primegraph.build_graph(spectra.group_id(O8PLUS, 4, 4))
    assert _neighbours(graph, 13) == (5,)


def test_adjacency_matches_spectrum_membership() -> None:
    for key in ((SP, 3, 3), (O8MINUS, 4, 2), (BN, 3, 3)):
        group = spectra.group_id(*key)
        graph = primegraph.build_graph(group)
        spec = spectra.spectrum(group)
        for r, s in itertools.combinations(graph.vertices, 2):
            assert graph.adjacent(r, s) == spectra.contains(spec, r * s), (
                key, r, s,
            )


def test_graph_from_spectrum_matches_pairwise_membership() -> None:
    """Adjacency read off the generators against spectra.contains on every
    pair, with vertices that need not be primes (1, 4, 6, ...)."""
    spec = spectra.SpectrumGens("t", "full", (8, 9, 10, 12))
    graph = primegraph.graph_from_spectrum(spec, (6, 2, 4, 3))
    assert graph.vertices == (2, 3, 4, 6)
    assert graph.edges == ((2, 3), (2, 4), (2, 6), (3, 4))
    # both vertices divide the value but their product does not
    spec = spectra.SpectrumGens("t", "full", (12,))
    assert primegraph.graph_from_spectrum(spec, (4, 6)).edges == ()
    spec = spectra.SpectrumGens("t", "full", (4,))
    assert primegraph.graph_from_spectrum(spec, (2, 4)).edges == ()
    # 20 and 28 meet the vertex product 8 in the same gcd, 4
    spec = spectra.SpectrumGens("t", "full", (20, 28))
    assert primegraph.graph_from_spectrum(spec, (2, 4)).edges == ()
    spec = spectra.SpectrumGens("t", "full", (3, 20, 28))
    assert primegraph.graph_from_spectrum(spec, (2, 3, 4, 5)).edges == (
        (2, 5), (4, 5),
    )
    rng = random.Random(29)
    for _ in range(200):
        spec = spectra.reduce_gens(rng.sample(range(1, 400), rng.randint(1, 8)))
        verts = rng.sample(range(1, 30), rng.randint(0, 12))
        graph = primegraph.graph_from_spectrum(spec, verts)
        assert graph.edges == tuple(
            (r, s)
            for r, s in itertools.combinations(sorted(verts), 2)
            if spectra.contains(spec, r * s)
        ), (spec.gens, verts)
    with pytest.raises(DomainError):
        primegraph.graph_from_spectrum(spec, (0, 2))


# The (family, n, q, part) grid of the closed-form benchmark: 747 groups.
BENCHMARK_Q = (2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048, 4096,
               3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 243)


def _benchmark_grid() -> list[tuple[str, int, int, str]]:
    grid = []
    for q in BENCHMARK_Q:
        for n in range(2, 13):
            if (n, q) != (2, 2):
                grid.append((SP, n, q, spectra.FULL))
            if q % 2 and n >= 3:
                grid.append((BN, n, q, spectra.FULL))
            if n >= 4:
                grid.append((DPLUS, n, q, spectra.PPRIME))
                grid.append((DMINUS, n, q, spectra.PPRIME))
    return grid


def test_benchmark_graphs_and_cocliques_are_pinned() -> None:
    """One sha256 over the canonical JSON and the 3-cocliques of every
    graph the closed-form benchmark builds."""
    grid = _benchmark_grid()
    assert len(grid) == 747
    digest = hashlib.sha256()
    for family, n, q, part in grid:
        graph = primegraph.build_graph(spectra.group_id(family, n, q), part)
        digest.update((primegraph.export_graph(graph) + "\n").encode())
        digest.update((repr(primegraph.find_cocliques(graph, 3)) + "\n").encode())
    assert digest.hexdigest() == (
        "093d8e03cede12982cb45c6a4f3e9be3abb1eceb1f75237d656fd155b28ef5c5"
    )


def _graph_from_reduced_spectrum(group, part: str) -> primegraph.PrimeGraph:
    """The prime graph read off the reduced generator list of the part."""
    spec = spectra.spectrum_of_part(group, part)
    verts = primegraph.group_order(group).primes
    if part != spectra.FULL:
        verts = tuple(r for r in verts if r != group.p)
    return primegraph.graph_from_spectrum(spec, verts)


def _outcome(build, group, part: str):
    try:
        return build(group, part)
    except OrdspecError as exc:
        return type(exc), str(exc)


def test_build_graph_equals_the_graph_of_the_reduced_spectrum() -> None:
    """build_graph reads adjacency off unreduced values; it gives the graph
    of the reduced list for every family and both parts (S2n and O2n+1
    p'-graphs, O8+/-(q) and GO8-(q) included), and the same error."""
    graphs = 0
    for family, n, q in itertools.product(
        spectra.FAMILIES, range(2, 8), (2, 3, 4, 5, 7, 8, 9, 16, 27)
    ):
        try:
            group = spectra.group_id(family, n, q)
        except DomainError:
            continue
        for part in (spectra.FULL, spectra.PPRIME):
            want = _outcome(_graph_from_reduced_spectrum, group, part)
            assert _outcome(primegraph.build_graph, group, part) == want, (
                family, n, q, part,
            )
            graphs += isinstance(want, primegraph.PrimeGraph)
    assert graphs == 321
    for key, part in (
        ((SP, 3, 3), "bogus"),
        ((SP, 2, 2), spectra.FULL),
        ((SP, 2, 2), spectra.PPRIME),
        ((DPLUS, 5, 3), spectra.FULL),
        ((SP, spectra.MAX_RANK + 1, 3), spectra.FULL),
        ((DMINUS, spectra.MAX_RANK + 1, 3), spectra.PPRIME),
    ):
        group = spectra.group_id(*key)
        want = _outcome(_graph_from_reduced_spectrum, group, part)
        assert isinstance(want, tuple), (key, part)
        assert _outcome(primegraph.build_graph, group, part) == want, (key, part)


def _cocliques_by_filter(graph, size: int) -> list[tuple[int, ...]]:
    return [
        combo
        for combo in itertools.combinations(graph.vertices, size)
        if not any(
            graph.adjacent(r, s) for r, s in itertools.combinations(combo, 2)
        )
    ]


def test_find_cocliques_matches_combinations_filter() -> None:
    rng = random.Random(31)
    for _ in range(60):
        verts = tuple(sorted(rng.sample(range(2, 60), rng.randint(0, 11))))
        density = rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))
        edges = tuple(
            e for e in itertools.combinations(verts, 2) if rng.random() < density
        )
        graph = primegraph.PrimeGraph("r", "full", verts, edges)
        for size in (1, 2, 3, 4, 5, len(verts) + 1):
            assert primegraph.find_cocliques(graph, size) == _cocliques_by_filter(
                graph, size
            ), (verts, edges, size)


def test_find_cocliques_on_graphs_wider_than_a_machine_word() -> None:
    """A random graph on 72 vertices, as many as the largest benchmark
    graph, and the prime graph of S24(4096)."""
    rng = random.Random(37)
    verts = tuple(sorted(rng.sample(range(2, 1000), 72)))
    edges = tuple(e for e in itertools.combinations(verts, 2) if rng.random() < 0.6)
    wide = primegraph.PrimeGraph("r", "full", verts, edges)
    s24 = primegraph.build_graph(spectra.group_id(SP, 12, 4096))
    assert len(s24.vertices) > 64
    for graph in (wide, s24):
        for size in (1, 2, 3):
            assert primegraph.find_cocliques(graph, size) == _cocliques_by_filter(
                graph, size
            ), (graph.label, size)


def test_closed_form_path_imports_no_sympy() -> None:
    """Orders, prime graphs and 3-cocliques of S24(4096), O25(243) and the
    p'-graph of O24-(49), and the whole verification suite, in a fresh
    interpreter: primality is decided in arith and every Phi_m(p) >= 2^20
    comes from the table, so sympy is never loaded."""
    script = (
        "import sys\n"
        "from ordspec import primegraph, spectra, verify\n"
        "for family, q, part in (('Sp', 4096, 'full'), ('Bn', 243, 'full'),\n"
        "                        ('Dminus', 49, 'p-prime')):\n"
        "    group = spectra.group_id(family, 12, q)\n"
        "    primegraph.group_order(group)\n"
        "    primegraph.find_cocliques(primegraph.build_graph(group, part), 3)\n"
        "reports = verify.run_suite(verify.default_config())\n"
        "assert all(r.passed for r in reports), 'suite'\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n"
    )
    src = str(Path(primegraph.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_group_order_returns_independent_factorizations() -> None:
    group = spectra.group_id(SP, 4, 3)
    first = primegraph.group_order(group)
    second = primegraph.group_order(group)
    assert first == second and first is not second
    assert first.factors is not second.factors
    first.factors[2] += 1
    assert primegraph.group_order(group) == second


def test_p_prime_graph_excludes_characteristic() -> None:
    group = spectra.group_id(DPLUS, 5, 3)
    graph = primegraph.build_graph(group, part="p-prime")
    assert 3 not in graph.vertices
    full_primes = primegraph.group_order(group).primes
    assert set(graph.vertices) == set(full_primes) - {3}


def test_build_graph_rejects_an_unknown_part() -> None:
    with pytest.raises(DomainError):
        primegraph.build_graph(spectra.group_id(SP, 2, 3), "bogus")


def test_graph_validation_and_errors() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 2, 3))
    with pytest.raises(DomainError):
        graph.adjacent(2, 7)
    with pytest.raises(DomainError):
        primegraph.find_cocliques(graph, 0)
    with pytest.raises(DomainError):
        primegraph.PrimeGraph("x", "full", (3, 2), ())
    with pytest.raises(DomainError):
        primegraph.PrimeGraph("x", "full", (2, 3), ((3, 2),))
    for part in ("0'", "4'", "3", "full'"):
        with pytest.raises(DomainError):
            primegraph.PrimeGraph("x", part, (2, 5), ())
    with pytest.raises(DomainError):
        primegraph.PrimeGraph("x", "3'", (2, 3), ())


def test_export_parse_round_trip() -> None:
    for key in ((SP, 4, 2), (O8PLUS, 4, 5), (DMINUS, 4, 2)):
        graph = primegraph.build_graph(spectra.group_id(*key))
        text = primegraph.export_graph(graph)
        back = primegraph.parse_graph(text)
        assert back == graph
        assert primegraph.export_graph(back) == text
    with pytest.raises(UsageError):
        primegraph.parse_graph("{")


def test_parse_rejects_well_formed_json_that_breaks_an_invariant() -> None:
    good = json.loads(primegraph.export_graph(
        primegraph.build_graph(spectra.group_id(SP, 2, 3))
    ))
    for bad in (
        {"vertices": [3, 2]},
        {"edges": [[3, 2]]},
        {"edges": [[2, 7]]},
        {"part": "0'", "vertices": [1, 4], "edges": [[1, 4]]},
        {"part": "4'"},
        {"part": "3'"},
        {"vertices": [2, 3, 5, 9]},
        {"vertices": [1, 2, 3, 5]},
    ):
        with pytest.raises(UsageError):
            primegraph.parse_graph(json.dumps({**good, **bad}))


def test_edge_set_is_derived_state() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 2, 3))
    twin = primegraph.PrimeGraph(
        graph.label, graph.part, graph.vertices, graph.edges
    )
    assert graph.edge_set == frozenset(graph.edges)
    assert twin == graph and hash(twin) == hash(graph)
    assert "edge_set" not in repr(graph)
    assert "edge_set" not in primegraph.export_graph(graph)
    assert twin != primegraph.PrimeGraph(
        graph.label, graph.part, graph.vertices, ()
    )


def _divisor_closure(gens) -> list[int]:
    """Every divisor of some generator, ascending."""
    return sorted({d for g in gens for d in arith.divisors(g)})


def test_isolated_vertex_forces_disconnected_graph() -> None:
    # r_4(3) = 5 is isolated in GK(S4(3)): the spectrum has no multiple
    # of 5 other than 5 itself.
    spec = spectra.spectrum(spectra.group_id(SP, 2, 3))
    closure = _divisor_closure(spec.gens)
    assert [a for a in closure if a % 5 == 0] == [5]
