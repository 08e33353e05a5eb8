"""Unit tests for group orders, prime graphs, and coclique search."""

from __future__ import annotations

import itertools
import math

import pytest

from ordspec import primegraph, spectra
from ordspec.errors import DomainError, UsageError
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
    cases = [
        (SP, 2, 3), (SP, 2, 4), (SP, 3, 2), (SP, 4, 2), (SP, 5, 3),
        (BN, 3, 3), (BN, 4, 5),
        (DPLUS, 4, 2), (DPLUS, 6, 3), (DMINUS, 4, 2), (DMINUS, 5, 4),
        (O8PLUS, 4, 3), (O8MINUS, 4, 2), (GO8MINUS, 4, 2),
    ]
    for family, n, q in cases:
        group = spectra.group_id(family, n, q)
        got = primegraph.group_order(group)
        assert got.value == _order_by_plain_formula(family, n, q), (family, n, q)


def test_frozen_orders() -> None:
    assert primegraph.group_order(spectra.group_id(SP, 2, 3)).value == 25920
    assert primegraph.group_order(spectra.group_id(SP, 2, 4)).value == 979200
    assert primegraph.group_order(spectra.group_id(SP, 3, 2)).value == 1451520
    assert primegraph.group_order(spectra.group_id(O8MINUS, 4, 2)).value == 197406720
    assert primegraph.group_order(spectra.group_id(O8PLUS, 4, 2)).value == 174182400
    assert primegraph.group_order(spectra.group_id(GO8MINUS, 4, 2)).value == 394813440


def test_gk_s8_2_structure() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 4, 2))
    assert graph.vertices == (2, 3, 5, 7, 17)
    assert graph.edges == ((2, 3), (2, 5), (2, 7), (3, 5), (3, 7))
    assert primegraph.neighbourhood(graph, 17) == ()
    assert primegraph.find_cocliques(graph, 3) == [(5, 7, 17)]
    assert primegraph.is_coclique(graph, (5, 7, 17))
    assert not primegraph.is_coclique(graph, (2, 3))


def test_gk_s4_3_structure() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 2, 3))
    assert graph.vertices == (2, 3, 5)
    assert graph.edges == ((2, 3),)
    assert primegraph.neighbourhood(graph, 5) == ()


def test_gk_o8plus_4_neighbourhood() -> None:
    graph = primegraph.build_graph(spectra.group_id(O8PLUS, 4, 4))
    assert primegraph.neighbourhood(graph, 13) == (5,)


def test_adjacency_matches_spectrum_membership() -> None:
    for key in ((SP, 3, 3), (O8MINUS, 4, 2), (BN, 3, 3)):
        group = spectra.group_id(*key)
        graph = primegraph.build_graph(group)
        spec = spectra.spectrum(group)
        for r, s in itertools.combinations(graph.vertices, 2):
            assert graph.adjacent(r, s) == spectra.contains(spec, r * s), (
                key, r, s,
            )


def test_p_prime_graph_excludes_characteristic() -> None:
    group = spectra.group_id(DPLUS, 5, 3)
    graph = primegraph.build_graph(group, part="p-prime")
    assert 3 not in graph.vertices
    full_primes = primegraph.group_order(group).primes
    assert set(graph.vertices) == set(full_primes) - {3}


def test_graph_validation_and_errors() -> None:
    graph = primegraph.build_graph(spectra.group_id(SP, 2, 3))
    with pytest.raises(DomainError):
        graph.adjacent(2, 7)
    with pytest.raises(DomainError):
        primegraph.neighbourhood(graph, 11)
    with pytest.raises(DomainError):
        primegraph.is_coclique(graph, (2, 11))
    with pytest.raises(DomainError):
        primegraph.find_cocliques(graph, 0)
    with pytest.raises(DomainError):
        primegraph.PrimeGraph("x", "full", (3, 2), ())
    with pytest.raises(DomainError):
        primegraph.PrimeGraph("x", "full", (2, 3), ((3, 2),))


def test_export_parse_round_trip() -> None:
    for key in ((SP, 4, 2), (O8PLUS, 4, 5), (DMINUS, 4, 2)):
        graph = primegraph.build_graph(spectra.group_id(*key))
        text = primegraph.export_graph(graph)
        back = primegraph.parse_graph(text)
        assert back == graph
        assert primegraph.export_graph(back) == text
    with pytest.raises(UsageError):
        primegraph.parse_graph("{")


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


def test_isolated_vertex_forces_disconnected_graph() -> None:
    # r_4(3) = 5 is isolated in GK(S4(3)): the spectrum has no multiple
    # of 5 other than 5 itself.
    spec = spectra.spectrum(spectra.group_id(SP, 2, 3))
    closure = spectra.divisor_closure(spec)
    assert [a for a in closure if a % 5 == 0] == [5]
