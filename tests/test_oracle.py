"""Unit tests for finite fields, matrix closure, and the brute-force
spectrum oracles.

Independent references used here: symmetric-group element orders via
itertools.permutations (Sp4(2) is isomorphic to S6), an exhaustive filter
over all 4x4 GF(2) matrices (GO4+(2)), the exceptional isomorphism
PSU4(2) = PSp4(3) as a cross-check between two unrelated generator sets,
and per-element brute force for the centre (every element tested against
every generator) and for element orders (every element powered until it
lands in the centre), and MatrixGF's entry-by-entry products for the
packed closure engine.
"""

from __future__ import annotations

import itertools
import json
import math
import random

import pytest

from ordspec import oracle, spectra
from ordspec.errors import DomainError, ResourceError


def _field_elements(fld: oracle.Field) -> range:
    return range(fld.q)


def test_field_axioms_sampled() -> None:
    rng = random.Random(41)
    for q in (2, 4, 8, 9, 25, 64, 81):
        fld = oracle.field_of_order(q)
        for _ in range(60):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert fld.add(a, b) == fld.add(b, a)
            assert fld.mul(a, b) == fld.mul(b, a)
            assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, fld.add(b, c)) == fld.add(
                fld.mul(a, b), fld.mul(a, c)
            )
            assert fld.add(a, fld.neg(a)) == 0
            if a:
                assert fld.mul(a, fld.inv(a)) == 1


def test_field_primitive_element_order() -> None:
    for q in (4, 8, 9, 27, 32):
        fld = oracle.field_of_order(q)
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = fld.mul(x, fld.gen)
        assert x == 1
        assert len(seen) == q - 1


def test_field_conj_is_involutory_automorphism() -> None:
    for q in (4, 16, 64, 9, 25):
        fld = oracle.field_of_order(q)
        sub = fld.sub_q()
        fixed = 0
        for a in _field_elements(fld):
            assert fld.conj(fld.conj(a)) == a
            for b in _field_elements(fld):
                assert fld.conj(fld.add(a, b)) == fld.add(
                    fld.conj(a), fld.conj(b)
                )
                break
            if fld.conj(a) == a:
                fixed += 1
        assert fixed == sub
    with pytest.raises(DomainError):
        oracle.field_of_order(8).sub_q()


def test_field_parameter_validation() -> None:
    with pytest.raises(DomainError):
        oracle.field(4, 1)
    with pytest.raises(DomainError):
        oracle.field(2, 0)
    with pytest.raises(DomainError):
        oracle.field(2, 13)
    with pytest.raises(DomainError):
        oracle.field_of_order(12)


def test_matrix_inverse_and_order() -> None:
    fld = oracle.field_of_order(5)
    rng = random.Random(43)
    found = 0
    while found < 10:
        rows = [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
        mat = oracle.MatrixGF(fld, rows)
        try:
            inv = mat.inverse()
        except DomainError:
            continue
        found += 1
        assert (mat * inv).is_identity()
        assert (inv * mat).is_identity()
    zero = oracle.MatrixGF(fld, [[0] * 3] * 3)
    with pytest.raises(DomainError):
        zero.inverse()


def test_matrix_immutable_and_validated() -> None:
    fld = oracle.field_of_order(3)
    mat = oracle.MatrixGF.identity(fld, 2)
    with pytest.raises(AttributeError):
        mat.rows = ()
    with pytest.raises(DomainError):
        oracle.MatrixGF(fld, [[0, 1]])
    with pytest.raises(DomainError):
        oracle.MatrixGF(fld, [[0, 5], [1, 1]])


def test_transvections_preserve_symplectic_form() -> None:
    for family, dim, q in oracle.SUPPORTED_GENERATORS:
        if family != "Sp":
            continue
        for g in oracle.standard_generators(family, dim, q):
            assert oracle.preserves_symplectic_form(g), (dim, q)


def test_sp4_2_is_s6() -> None:
    group = oracle.close_group(oracle.standard_generators("Sp", 4, 2))
    assert len(group) == 720
    got = oracle.element_orders(group)
    # element orders of S6 from cycle types
    s6_orders = set()
    for perm in itertools.permutations(range(6)):
        seen = [False] * 6
        lengths = []
        for start in range(6):
            if seen[start]:
                continue
            length, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            lengths.append(length)
        s6_orders.add(math.lcm(*lengths))
    want = spectra.reduce_gens(s6_orders, label="S6", part="full")
    assert got.gens == want.gens


def test_go4plus_2_closure_equals_exhaustive_filter() -> None:
    fld = oracle.field_of_order(2)
    keep = []
    for code in range(2**16):
        rows = tuple(
            tuple((code >> (4 * i + j)) & 1 for j in range(4))
            for i in range(4)
        )
        mat = oracle.MatrixGF(fld, rows)
        try:
            mat.inverse()
        except DomainError:
            continue
        if oracle.preserves_quadratic_form_plus_4(mat):
            keep.append(mat)
    group = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    assert len(keep) == 72
    assert len(group) == 72
    assert set(keep) == set(group.elements())


def test_su4_2_matches_s4_3_spectrum() -> None:
    group = oracle.close_group(oracle.standard_generators("SU", 4, 2))
    assert len(group) == 25920
    centre = oracle.centre_of(group)
    assert len(centre) == 1
    got = oracle.element_orders(group)
    want = spectra.spectrum(spectra.group_id("Sp", 2, 3))
    assert got.gens == want.gens


def test_sp4_3_closure_centre_and_coset_orders() -> None:
    group = oracle.close_group(oracle.standard_generators("Sp", 4, 3))
    assert len(group) == 51840
    centre = oracle.centre_of(group)
    assert len(centre) == 2
    got = oracle.element_orders(group, centre)
    assert got.gens == (5, 9, 12)


def test_close_group_cap() -> None:
    with pytest.raises(ResourceError):
        oracle.close_group(oracle.standard_generators("Sp", 4, 3), cap=1000)


def test_twisted_element_order_eight_for_all_t() -> None:
    rng = random.Random(47)
    for q in (2, 4, 8):
        fld = oracle.field(2, 2 * oracle.field_of_order(q).m)
        outside = [t for t in range(fld.q) if fld.conj(t) != t]
        picks = outside if len(outside) <= 16 else rng.sample(outside, 16)
        for t in picks:
            assert oracle.twisted_order_with_t(q, t) == 8, (q, t)
    assert oracle.twisted_order_b_gamma(2) == 8
    assert oracle.twisted_order_b_gamma(32) == 8


def test_twisted_element_rejects_subfield_t() -> None:
    with pytest.raises(DomainError):
        oracle.twisted_order_with_t(4, 0)
    with pytest.raises(DomainError):
        oracle.twisted_order_with_t(4, 1)
    with pytest.raises(DomainError):
        oracle.twisted_order_b_gamma(3)


def test_sample_orders_deterministic_and_sound() -> None:
    gens = oracle.standard_generators("Sp", 4, 3)
    centre = oracle.central_scalars("Sp", 4, 3)
    first = oracle.sample_orders(gens, 80, seed=5, centre=centre)
    second = oracle.sample_orders(gens, 80, seed=5, centre=centre)
    assert first == second
    spec = spectra.spectrum(spectra.group_id("Sp", 2, 3))
    for o in first:
        assert spectra.contains(spec, o), o


def test_sample_orders_centre_validation() -> None:
    gens = oracle.standard_generators("Sp", 4, 3)
    fld = gens[0].field
    not_central = [oracle.MatrixGF.identity(fld, 4), gens[0]]
    with pytest.raises(DomainError):
        oracle.sample_orders(gens, 5, seed=0, centre=not_central)
    missing_identity = [oracle.central_scalars("Sp", 4, 3)[1]]
    with pytest.raises(DomainError):
        oracle.sample_orders(gens, 5, seed=0, centre=missing_identity)
    with pytest.raises(DomainError):
        oracle.sample_orders(gens, 0, seed=0)
    with pytest.raises(DomainError):
        oracle.sample_orders([], 5, seed=0)


def test_central_scalars() -> None:
    sp = oracle.central_scalars("Sp", 4, 3)
    assert len(sp) == 2
    assert sp[0].is_identity()
    minus = sp[1]
    assert (minus * minus).is_identity()
    assert len(oracle.central_scalars("Sp", 4, 2)) == 1
    assert len(oracle.central_scalars("SU", 4, 4)) == 1
    assert len(oracle.central_scalars("GOplus", 4, 2)) == 1
    with pytest.raises(DomainError):
        oracle.central_scalars("Sp", 8, 2)


def test_standard_generators_validation() -> None:
    with pytest.raises(DomainError):
        oracle.standard_generators("Sp", 4, 7)
    with pytest.raises(DomainError):
        oracle.standard_generators("SU", 6, 2)


def test_enumerate_group_cache_round_trip(tmp_path) -> None:
    first = oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    assert first[0] == second[0] == 72
    assert first[1] == second[1]
    assert first[2].gens == second[2].gens
    good = files[0].read_text(encoding="utf-8")
    # an entry that does not parse is a miss: recomputed and overwritten
    files[0].write_text("{broken", encoding="utf-8")
    third = oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    assert (third[0], third[1], third[2].gens) == (72, 1, (4, 6))
    assert list(tmp_path.iterdir()) == files
    assert files[0].read_text(encoding="utf-8") == good


def test_enumerate_group_cache_file_name(tmp_path) -> None:
    """The cache key hashes a format tag and the generators' rows; a
    changed name silently orphans every stored entry, so it is pinned."""
    oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    assert [f.name for f in tmp_path.iterdir()] == [
        "GOplus4q2-3f181c78a766.json"
    ]


def test_centre_of_go4plus_trivial() -> None:
    group = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    assert len(oracle.centre_of(group)) == 1


def _brute_force_orders(group, centre) -> set[int]:
    """Order modulo the centre of every element, one power walk each."""
    centre = set(centre)
    orders = set()
    for mat in group.elements():
        acc, order = mat, 1
        while acc not in centre:
            acc, order = acc * mat, order + 1
        orders.add(order)
    return orders


def _brute_force_centre(group) -> set[oracle.MatrixGF]:
    return {
        m
        for m in group.elements()
        if all(m * g == g * m for g in group.generators)
    }


def _sl2(q: int) -> oracle.ClosedGroup:
    """SL2(q), generated by the transvections [[1, lam], [0, 1]] for lam
    over a GF(p)-basis and the Weyl element [[0, -1], [1, 0]]."""
    fld = oracle.field_of_order(q)
    gens = [
        oracle.MatrixGF(fld, ((1, fld.p**t), (0, 1))) for t in range(fld.m)
    ]
    return oracle.close_group(gens + [
        oracle.MatrixGF(fld, ((0, fld.neg(1)), (1, 0))),
    ])


def _gl2_2_in_gl4_2() -> oracle.ClosedGroup:
    """GL2(2) embedded block-diagonally as diag(M, I2): reducible, with a
    five-dimensional commutant (scalars on the first block, anything on
    the second)."""
    fld = oracle.field_of_order(2)

    def embed(m):
        (a, b), (c, d) = m
        return oracle.MatrixGF(
            fld, ((a, b, 0, 0), (c, d, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        )

    return oracle.close_group([embed(((1, 1), (0, 1))), embed(((0, 1), (1, 0)))])


def test_element_orders_match_brute_force_walk() -> None:
    for family in ("GOplus", "Sp"):
        group = oracle.close_group(oracle.standard_generators(family, 4, 2))
        ident = [oracle.MatrixGF.identity(group.field, 4)]
        want = spectra.reduce_gens(_brute_force_orders(group, ident))
        assert oracle.element_orders(group).gens == want.gens, family
        assert oracle.element_orders(group, ident) == oracle.element_orders(group)
    group = _sl2(5)
    assert len(group) == 120
    centre = oracle.centre_of(group)
    want = spectra.reduce_gens(_brute_force_orders(group, centre))
    got = oracle.element_orders(group, centre)
    assert got.gens == want.gens == (2, 3, 5)
    ident = [oracle.MatrixGF.identity(group.field, 2)]
    plain = spectra.reduce_gens(_brute_force_orders(group, ident))
    assert oracle.element_orders(group).gens == plain.gens == (4, 6, 10)
    assert oracle.element_orders(group, ident) == oracle.element_orders(group)


def test_power_walk_stops_at_the_bound() -> None:
    # [[1, 1], [0, 1]] has order 5 over GF(5): order 5 is allowed by a
    # bound of 5 and is an error under a bound of 4
    fld = oracle.field_of_order(5)
    eng = oracle._Engine(fld, 2)
    key = eng.encode(((1, 1), (0, 1)))
    powers = oracle._central_power_walk(eng, key, {eng.identity}, 5)
    assert [eng.decode(k) for k in powers] == [
        ((1, j), (0, 1)) for j in range(1, 5)
    ]
    with pytest.raises(ResourceError):
        oracle._central_power_walk(eng, key, {eng.identity}, 4)
    assert oracle._central_power_walk(eng, eng.identity, {eng.identity}, 1) == []


def test_centre_of_matches_brute_force_filter() -> None:
    group = _sl2(5)
    centre = oracle.centre_of(group)
    assert set(centre) == _brute_force_centre(group)
    assert centre == [
        oracle.MatrixGF(group.field, ((1, 0), (0, 1))),
        oracle.MatrixGF(group.field, ((4, 0), (0, 4))),
    ]
    assert oracle.centre_of(group) == centre
    group = _gl2_2_in_gl4_2()
    assert len(group) == 6
    assert len(oracle._commutant_basis(group.generators)) == 5
    centre = oracle.centre_of(group)
    assert set(centre) == _brute_force_centre(group)
    assert len(centre) == 1 and centre[0].is_identity()


def test_centre_of_caps_the_commutant(monkeypatch) -> None:
    group = _gl2_2_in_gl4_2()
    monkeypatch.setattr(oracle, "DEFAULT_CAP", 2**5 - 1)
    with pytest.raises(ResourceError):
        oracle.centre_of(group)


def test_enumerate_group_cache_write_is_atomic(tmp_path, monkeypatch) -> None:
    def torn_dump(obj, fh, **kwargs):
        fh.write('{"group_order":')
        raise OSError("disk full")

    monkeypatch.setattr(oracle.json, "dump", torn_dump)
    with pytest.raises(OSError):
        oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()

    closures = []
    close_group = oracle.close_group

    def counting_close_group(*args, **kwargs):
        closures.append(1)
        return close_group(*args, **kwargs)

    monkeypatch.setattr(oracle, "close_group", counting_close_group)
    order, centre_size, spec = oracle.enumerate_group(
        "GOplus", 4, 2, cache_dir=str(tmp_path)
    )
    assert closures == [1]
    assert (order, centre_size, spec.gens) == (72, 1, (4, 6))
    assert [f.suffix for f in tmp_path.iterdir()] == [".json"]


def test_engine_matches_matrix_reference() -> None:
    """The packed engine against MatrixGF: encode/decode round-trip and
    products, over fields of both characteristics with one or several
    digits per entry, in dimensions 1 to 6."""
    rng = random.Random(53)
    qs = (2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 64, 81, 243, 1024, 2187, 4096)
    for q in qs:
        fld = oracle.field_of_order(q)
        for dim in range(1, 7):
            eng = oracle._Engine(fld, dim)
            for _ in range(3):
                a, b = (
                    oracle.MatrixGF(fld, [
                        [rng.randrange(q) for _ in range(dim)]
                        for _ in range(dim)
                    ])
                    for _ in range(2)
                )
                key_a = eng.encode(a.rows)
                assert eng.decode(key_a) == a.rows, (q, dim)
                product = eng.mul(key_a, eng.tables(eng.encode(b.rows)))
                assert eng.decode(product) == (a * b).rows, (q, dim)


def test_sl2_over_fields_with_several_digits() -> None:
    # PSL2(q) for odd q has element orders p, (q - 1)/2, (q + 1)/2 and
    # their divisors
    for q, want in ((9, (3, 4, 5)), (25, (5, 12, 13)), (27, (3, 13, 14))):
        group = _sl2(q)
        assert len(group) == q * (q * q - 1), q
        centre = oracle.centre_of(group)
        assert len(centre) == 2, q
        assert oracle.element_orders(group, centre).gens == want, q


def test_sample_orders_pinned() -> None:
    """Sampled orders are fixed by the seed; these tuples were produced by
    the earlier per-characteristic engines and must not move."""
    want = {
        ("Sp", 6, 3): (3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 18, 20, 24,
                       30, 36),
        ("Sp", 4, 4): (1, 2, 3, 4, 5, 6, 10, 15, 17),
        ("SU", 4, 8): (1, 2, 4, 6, 7, 9, 12, 14, 18, 19, 21, 27, 42, 57, 63,
                       65, 91, 126, 171, 455, 513),
    }
    for (family, dim, q), orders in want.items():
        gens = oracle.standard_generators(family, dim, q)
        centre = oracle.central_scalars(family, dim, q)
        got = oracle.sample_orders(gens, 100, seed=2024, centre=centre)
        assert got == orders, (family, dim, q)
    # Sp4(4) has trivial centre: passing [I] is the same as passing nothing
    gens = oracle.standard_generators("Sp", 4, 4)
    assert oracle.central_scalars("Sp", 4, 4) == [
        oracle.MatrixGF.identity(gens[0].field, 4)
    ]
    assert oracle.sample_orders(gens, 100, seed=2024) == want[("Sp", 4, 4)]


def test_enumerate_group_rejects_tampered_cache(tmp_path) -> None:
    oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    (entry,) = tmp_path.iterdir()
    good_text = entry.read_text(encoding="utf-8")
    good = json.loads(good_text)
    tampered = (
        ("group_order", None),
        ("group_order", [72]),
        ("group_order", "73"),
        ("group_order", "0"),
        ("centre_size", 0),
        ("centre_size", 5),
        ("spectrum", {**good["spectrum"], "gens": []}),
    )
    for field, value in tampered:
        entry.write_text(json.dumps({**good, field: value}), encoding="utf-8")
        order, centre_size, spec = oracle.enumerate_group(
            "GOplus", 4, 2, cache_dir=str(tmp_path)
        )
        assert (order, centre_size, spec.gens) == (72, 1, (4, 6)), field
        assert list(tmp_path.iterdir()) == [entry]
        assert entry.read_text(encoding="utf-8") == good_text, (field, value)
    entry.write_text(json.dumps(good), encoding="utf-8")
    order, centre_size, spec = oracle.enumerate_group(
        "GOplus", 4, 2, cache_dir=str(tmp_path)
    )
    assert (order, centre_size, spec.gens) == (72, 1, (4, 6))
