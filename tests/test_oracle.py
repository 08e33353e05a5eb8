"""Unit tests for finite fields, matrix closure, and the brute-force
spectrum oracles.

Independent references used here: symmetric-group element orders via
itertools.permutations (Sp4(2) is isomorphic to S6), an exhaustive filter
over all 4x4 GF(2) matrices (GO4+(2)), the exceptional isomorphism
PSU4(2) = PSp4(3) as a cross-check between two unrelated generator sets,
and per-element brute force for the centre (every element tested against
every generator) and for element orders (every element powered until it
lands in the centre), an entry-by-entry matrix product, kept here, for
the packed engine behind every product in the oracle, and the Leibniz
expansion for the determinant that the row reduction reads off.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import math
import operator
import random
from functools import reduce

import pytest

from ordspec import oracle, primegraph, spectra
from ordspec.errors import DomainError, ResourceError, UnsupportedError, UsageError


def _field_elements(fld: oracle.Field) -> range:
    return range(fld.q)


def _dot(f: oracle.Field, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


def _product(a: oracle.MatrixGF, b: oracle.MatrixGF) -> oracle.MatrixGF:
    """a * b entry by entry, from the field's add and mul alone: the
    reference that the packed engine is tested against."""
    f = a.field
    assert b.field is f and b.dim == a.dim
    cols_b = tuple(zip(*b.rows))
    return oracle.MatrixGF(
        f, [tuple(_dot(f, arow, bcol) for bcol in cols_b) for arow in a.rows]
    )


def _leibniz_det(mat: oracle.MatrixGF) -> int:
    """det as the sum over permutations of signed products of entries, the
    sign read off the cycle count: the reference for oracle._det."""
    f, d = mat.field, mat.dim
    total = 0
    for perm in itertools.permutations(range(d)):
        term, seen, cycles = 1, set(), 0
        for i in range(d):
            term = f.mul(term, mat.rows[i][perm[i]])
            if i not in seen:
                cycles += 1
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
        total = f.add(total, f.neg(term) if (d - cycles) % 2 else term)
    return total


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


def test_field_construction_is_pinned() -> None:
    """The modulus and primitive element picked for a field fix the integer
    code of every element, and so every generator, key and cache name; a
    changed search order would silently re-code them.  GF(2) has gen 1,
    and in the other five fields gen is not x."""
    want = {
        2: ((0, 1), 1,
            "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
        9: ((1, 0, 1), 4,
            "b351095dd920918fc83d6ae9295547f7581dbfe436790376a190fd2c39c53e5a"),
        25: ((2, 0, 1), 6,
             "dc195559d55f793a6a8b043f4fca14fec4794ae39e12ae81b02cebd4ff2b04c8"),
        256: ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3,
              "c35609d7d6dbc90eeeeba529ec2e61d02974772b1dd274ec31fcdaf8696ce955"),
        2187: ((2, 0, 1, 0, 0, 0, 0, 1), 5,
               "c99ad20113c7b7e9e307a2fd7f2e587cf81310a19af2c9e70dc6abd89bf04e3d"),
        4096: ((1, 0, 0, 1) + (0,) * 8 + (1,), 3,
               "3b99066734910660fe7474c055d3c3cca5e0ebb4a399ed745b7d455af580c6b4"),
    }
    for q, (modulus, gen, exp_sha) in want.items():
        fld = oracle.Field(*spectra.split_prime_power(q))
        digest = hashlib.sha256(",".join(map(str, fld.exp)).encode()).hexdigest()
        assert (fld.modulus, fld.gen, digest) == (modulus, gen, exp_sha), q


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
        assert mat * inv == inv * mat == oracle.MatrixGF.identity(fld, 3)
    zero = oracle.MatrixGF(fld, [[0] * 3] * 3)
    with pytest.raises(DomainError):
        zero.inverse()


def test_det_matches_leibniz_and_su_needs_det_one() -> None:
    """Random matrices, and every third one made singular by overwriting
    its last row with a combination a r_0 + b r_(dim-2) of the others (with
    zero at dimension 1)."""
    rng = random.Random(53)
    for q in (2, 3, 4, 9, 25, 27):
        fld = oracle.field_of_order(q)
        for dim in range(1, 6):
            dets = []
            for trial in range(24):
                rows = [[rng.randrange(q) for _ in range(dim)] for _ in range(dim)]
                if trial % 3 == 0:
                    a, b = rng.randrange(q), rng.randrange(q)
                    rows[-1] = [0] if dim == 1 else [
                        fld.add(fld.mul(a, x), fld.mul(b, y))
                        for x, y in zip(rows[0], rows[-2])
                    ]
                mat = oracle.MatrixGF(fld, rows)
                dets.append(oracle._det(mat))
                assert dets[-1] == _leibniz_det(mat), (q, rows)
            assert 0 in dets and any(dets), (q, dim)
    # negative control: diag(a, 1, 1, conj(a)^-1) preserves the hermitian
    # form of SU4(2) and has det a / conj(a) = a^-1 for a primitive in
    # GF(4), so it lies in GU4(2) but not in SU4(2)
    fld = oracle.field_of_order(4)
    a = fld.gen
    g = oracle.MatrixGF(fld, (
        (a, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, fld.inv(fld.conj(a))),
    ))
    form = oracle._form("SU", fld, 4)
    assert _product(_product(g, form), g.conj_entries().transpose()) == form
    assert oracle._det(g) == _leibniz_det(g) == fld.inv(a) != 1
    assert not oracle.in_group("SU", g)


def test_matrix_immutable_and_validated() -> None:
    fld = oracle.field_of_order(3)
    mat = oracle.MatrixGF.identity(fld, 2)
    with pytest.raises(AttributeError):
        mat.rows = ()
    with pytest.raises(DomainError):
        oracle.MatrixGF(fld, [[0, 1]])
    with pytest.raises(DomainError):
        oracle.MatrixGF(fld, [[0, 5], [1, 1]])
    with pytest.raises(DomainError):
        oracle.MatrixGF(fld, [])
    # a product across rings is refused before either factor is packed,
    # since the engine would otherwise multiply the top-left blocks
    with pytest.raises(DomainError, match="different matrix rings"):
        mat * oracle.MatrixGF.identity(oracle.field_of_order(9), 2)
    with pytest.raises(DomainError, match="different matrix rings"):
        mat * oracle.MatrixGF.identity(fld, 3)


def test_transvections_preserve_symplectic_form() -> None:
    for family, dim, q in oracle.SUPPORTED_GENERATORS:
        if family != "Sp":
            continue
        for g in oracle.standard_generators(family, dim, q):
            assert oracle.in_group("Sp", g), (dim, q)
    # negative controls: diag(a, 1, ..., 1) scales one entry of the
    # antidiagonal form by a (times conj(a) for SU), and the transvection
    # along e1 preserves the polar form of x1 x2 + x3 x4 but maps e2 to
    # e1 + e2, where Q is 1
    for family, dim, q in (("Sp", 4, 3), ("SU", 4, 2)):
        fld = oracle.field_of_order(q * q if family == "SU" else q)
        rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        rows[0][0] = fld.gen
        assert not oracle.in_group(family, oracle.MatrixGF(fld, rows))
    shear = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert not oracle.in_group(
        "GOplus", oracle.MatrixGF(oracle.field_of_order(2), shear)
    )


def test_in_group_reads_q_in_every_even_dimension() -> None:
    """Q(x) = x1 x2 + x3 x4 + ... in any even dimension: the identity lies
    in GO+, and the shear e2 -> e1 + e2 keeps the polar form but not Q.
    An odd dimension has no such form."""
    fld = oracle.field_of_order(2)
    for dim in (2, 4, 6):
        rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        assert oracle.in_group("GOplus", oracle.MatrixGF(fld, rows)), dim
        rows[1][0] = 1
        assert not oracle.in_group("GOplus", oracle.MatrixGF(fld, rows)), dim
    with pytest.raises(DomainError):
        oracle.in_group("GOplus", oracle.MatrixGF.identity(fld, 3))


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
    vectors = list(itertools.product((0, 1), repeat=4))

    def quadratic(x) -> int:
        return (x[0] * x[1] + x[2] * x[3]) % 2

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
        # reference: Q(x g) = Q(x) on all 16 vectors, with x g the row
        # vector x times g
        preserved = all(
            quadratic([sum(x[i] * rows[i][j] for i in range(4)) for j in range(4)])
            == quadratic(x)
            for x in vectors
        )
        assert oracle.in_group("GOplus", mat) == preserved, rows
        if preserved:
            keep.append(mat)
    group = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    assert len(keep) == 72
    assert len(group) == 72
    assert set(keep) == _elements(group)


def test_su4_2_matches_s4_3_spectrum(monkeypatch) -> None:
    group = oracle.close_group(oracle.standard_generators("SU", 4, 2))
    assert len(group) == 25920
    centre = oracle.centre_of(group)
    assert len(centre) == 1
    walked = _record_walks(monkeypatch)
    got = oracle.element_orders(group)
    want = spectra.spectrum(spectra.group_id("Sp", 2, 3))
    assert got.gens == want.gens
    # SU4(2) has 20 classes (ATLAS)
    assert len(walked) == 19


def test_sp4_3_closure_centre_and_coset_orders(monkeypatch) -> None:
    group = oracle.close_group(oracle.standard_generators("Sp", 4, 3))
    assert len(group) == 51840
    centre = oracle.centre_of(group)
    assert len(centre) == 2
    walked = _record_walks(monkeypatch)
    got = oracle.element_orders(group, centre)
    assert got.gens == (5, 9, 12)
    # Sp4(3) has 34 classes (ATLAS), two of them central
    assert len(walked) == 32


def test_close_group_cap() -> None:
    gens = oracle.standard_generators("Sp", 4, 3)
    with pytest.raises(ResourceError):
        oracle.close_group(gens, cap=1000)
    with pytest.raises(DomainError, match="cap must be positive"):
        oracle.close_group(gens, cap=0)
    # the cap counts elements, however the breadth-first levels fall:
    # GO4+(2), with 72, closes under a cap of 72 and not under 71
    gens = oracle._generating_pair("GOplus", 4, 2)
    assert len(oracle.close_group(gens, cap=72)) == 72
    with pytest.raises(ResourceError, match="cap of 71"):
        oracle.close_group(gens, cap=71)


def test_twisted_element_order_eight_for_all_t() -> None:
    rng = random.Random(47)
    for q in (2, 4, 8):
        fld = oracle.field(2, 2 * oracle.field_of_order(q).m)
        outside = [t for t in range(fld.q) if fld.conj(t) != t]
        picks = outside if len(outside) <= 16 else rng.sample(outside, 16)
        for t in picks:
            assert oracle.twisted_order_with_t(q, t) == 8, (q, t)
    for q in (2, 4, 8, 16, 32):
        assert oracle.twisted_order_b_gamma(q) == 8, q


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


def test_centre_check_multiplies_engine_keys(monkeypatch) -> None:
    """The centre argument is checked on engine keys: no MatrixGF product,
    each of which would build a table set, runs in sampling or element
    orders, and a centre from another matrix ring is refused."""
    gens = oracle.standard_generators("Sp", 4, 3)
    centre = oracle.central_scalars("Sp", 4, 3)
    sl2_9 = _sl2(9)
    sl2_9_centre = oracle.centre_of(sl2_9)
    other = oracle.central_scalars("Sp", 4, 2)

    def no_product(a, b):
        raise AssertionError("MatrixGF product in a centre check")

    monkeypatch.setattr(oracle.MatrixGF, "__mul__", no_product)
    assert oracle.sample_orders(gens, 20, seed=3, centre=centre)
    assert oracle.element_orders(sl2_9, sl2_9_centre).gens == (3, 4, 5)
    with pytest.raises(DomainError, match="different matrix rings"):
        oracle.sample_orders(gens, 5, seed=0, centre=other)
    with pytest.raises(DomainError, match="different matrix rings"):
        oracle.element_orders(sl2_9, oracle.central_scalars("Sp", 4, 3))


def test_element_orders_refuses_a_centre_outside_the_group() -> None:
    """The scalars {I, wI, w^2 I} over GF(4) contain I, are closed and are
    central for SL2(4), but det(wI) = w^2 != 1, so they are not in it."""
    fld = oracle.field_of_order(4)
    w = fld.exp[1]
    sl2_4 = oracle.close_group([
        oracle.MatrixGF(fld, ((1, 1), (0, 1))),
        oracle.MatrixGF(fld, ((1, w), (0, 1))),
        oracle.MatrixGF(fld, ((1, 0), (1, 1))),
    ])
    assert len(sl2_4) == 60
    scalars = [oracle.MatrixGF(fld, ((a, 0), (0, a))) for a in (1, w, fld.mul(w, w))]
    with pytest.raises(DomainError, match="centre argument is not inside the group"):
        oracle.element_orders(sl2_4, scalars)


def test_element_orders_checks_its_centre_argument() -> None:
    """An empty centre is refused, and so is {I, wI} as the centre of the
    cyclic group <wI> over GF(4), since (wI)^2 = w^2 I is missing; a group
    that is its own centre has the one order 1."""
    fld = oracle.field_of_order(4)
    w = fld.exp[1]
    scalars = oracle.close_group([oracle.MatrixGF(fld, ((w, 0), (0, w)))])
    assert len(scalars) == 3
    with pytest.raises(DomainError, match="centre argument is empty"):
        oracle.element_orders(scalars, [])
    half = [oracle.MatrixGF.identity(fld, 2), oracle.MatrixGF(fld, ((w, 0), (0, w)))]
    with pytest.raises(DomainError, match="not closed under product"):
        oracle.element_orders(scalars, half)
    centre = oracle.centre_of(scalars)
    assert len(centre) == 3
    assert oracle.element_orders(scalars, centre).gens == (1,)


def test_central_scalars() -> None:
    sp = oracle.central_scalars("Sp", 4, 3)
    ident = oracle.MatrixGF.identity(sp[0].field, 4)
    assert len(sp) == 2
    assert sp[0] == ident
    minus = sp[1]
    assert minus * minus == ident
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
        "GOplus4q2-9806dafe1b79.json"
    ]


def test_centre_of_go4plus_trivial() -> None:
    group = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    assert len(oracle.centre_of(group)) == 1


def _elements(group) -> set[oracle.MatrixGF]:
    """The closed group's elements as matrices, read off its keys."""
    return {oracle.MatrixGF(group.field, group.rows(key)) for key in group.index}


def _brute_force_orders(group, centre) -> set[int]:
    """Order modulo the centre of every element, one power walk each."""
    centre = set(centre)
    orders = set()
    for mat in _elements(group):
        acc, order = mat, 1
        while acc not in centre:
            acc, order = _product(acc, mat), order + 1
        orders.add(order)
    return orders


def _brute_force_centre(group) -> set[oracle.MatrixGF]:
    return {
        m
        for m in _elements(group)
        if all(_product(m, g) == _product(g, m) for g in group.generators)
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
    """GL2(2) embedded block-diagonally as diag(M, I2): reducible, so many
    non-scalar matrices commute with it (scalars on the first block,
    anything on the second), yet its centre is trivial."""
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
    # SL2(9) mod +-I: the walks strike -g^j along with g^j
    nine = _sl2(9)
    nine_centre = oracle.centre_of(nine)
    want = spectra.reduce_gens(_brute_force_orders(nine, nine_centre))
    assert oracle.element_orders(nine, nine_centre).gens == want.gens == (3, 4, 5)
    ident = [oracle.MatrixGF.identity(group.field, 2)]
    plain = spectra.reduce_gens(_brute_force_orders(group, ident))
    assert oracle.element_orders(group).gens == plain.gens == (4, 6, 10)
    assert oracle.element_orders(group, ident) == oracle.element_orders(group)


def _record_walks(monkeypatch) -> list:
    """Patch _central_order to append each key it is asked about to the
    list it returns."""
    walked = []
    order = oracle._central_order

    def recording_order(eng, key, *args):
        walked.append(key)
        return order(eng, key, *args)

    monkeypatch.setattr(oracle, "_central_order", recording_order)
    return walked


def test_element_orders_walk_one_element_per_conjugacy_class(monkeypatch) -> None:
    """The classes of the walked elements, found here by MatrixGF products
    s^-1 X s over the generators, are disjoint, miss the centre and with it
    make up the group: an element struck otherwise could hide an order that
    no spectrum comparison would notice."""
    walked = _record_walks(monkeypatch)
    sp4_2 = oracle.close_group(oracle.standard_generators("Sp", 4, 2))
    go4_2 = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    for group in (_sl2(9), sp4_2, go4_2):
        walked.clear()
        centre = oracle.centre_of(group)
        oracle.element_orders(group, centre)
        eng = group.engine
        pairs = [(s.inverse(), s) for s in group.generators]
        covered: set[int] = set()
        for rep in walked:
            cls = [oracle.MatrixGF(group.field, eng.decode(rep))]
            for x in cls:
                for inv, s in pairs:
                    if (y := inv * x * s) not in cls:
                        cls.append(y)
            keys = {eng.encode(x.rows) for x in cls}
            assert not keys & covered, group.field
            covered |= keys
        centre_keys = {eng.encode(z.rows) for z in centre}
        assert not covered & centre_keys, group.field
        elements = {eng.encode(group.rows(key)) for key in group.index}
        assert covered | centre_keys == elements, group.field


def test_element_orders_walk_count_is_classes_outside_the_centre(monkeypatch) -> None:
    """One walk per conjugacy class outside the centre, k(G) - |Z|, with the
    class numbers of the ATLAS of Finite Groups (Conway et al., 1985):
    Sp4(2) = S6 has 11 classes, GO4+(2) 9, and SL2(q) for odd q has q + 4.
    Sp4(3) and SU4(2) are pinned where their spectra are checked."""
    walked = _record_walks(monkeypatch)
    sp4_2 = oracle.close_group(oracle.standard_generators("Sp", 4, 2))
    go4_2 = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
    for group, walks in ((sp4_2, 10), (go4_2, 8), (_sl2(5), 7), (_sl2(9), 11)):
        walked.clear()
        oracle.element_orders(group, oracle.centre_of(group))
        assert len(walked) == walks, group.field


def test_conjugation_places_match_matrix_products() -> None:
    """The place _conjugation_places gives a word X holds s^-1 X s as
    MatrixGF computes it, for 200 seeded words X in the pair generators of
    Sp4(3), SU4(2) and Sp6(2) and in the generators of SL2(9), and every
    generator s."""
    rng = random.Random(67)
    for gens in (
        oracle._generating_pair("Sp", 4, 3),
        oracle._generating_pair("SU", 4, 2),
        oracle._generating_pair("Sp", 6, 2),
        _sl2(9).generators,
    ):
        group = oracle.close_group(gens)
        conj = [
            (s.inverse(), s, oracle._conjugation_places(group, j))
            for j, s in enumerate(gens)
        ]
        for _ in range(200):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 12))]
            x = reduce(operator.mul, word)
            place = group.index[group.key(x.rows)]
            for inv, s, places in conj:
                got = places[place]
                assert got == group.index[group.key((inv * x * s).rows)], group.field


def test_closure_tables_are_products_on_a_breadth_first_tree() -> None:
    """right[j][i] is the place of the engine product key_i * g_j, places
    run 0, 1, ... in the order the keys were found, from the identity, and
    each element is its parent's key times generator via, with the parent
    placed earlier and parents in breadth-first order, on GO4+(2), Sp4(2),
    SL2(9) and the Sp4(3) pair."""
    for group in (
        oracle.close_group(oracle.standard_generators("GOplus", 4, 2)),
        oracle.close_group(oracle.standard_generators("Sp", 4, 2)),
        _sl2(9),
        oracle.close_group(oracle._generating_pair("Sp", 4, 3)),
    ):
        eng, index = group.engine, group.index
        keys = [eng.encode(group.rows(key)) for key in index]
        assert keys[0] == eng.identity
        assert list(index.values()) == list(range(len(group)))
        places = {key: place for place, key in enumerate(keys)}
        tabs = [eng.tables(eng.encode(g.rows)) for g in group.generators]
        assert len(group.right) == len(tabs)
        for row, tab in zip(group.right, tabs):
            assert list(row) == [places[eng.mul(key, tab)] for key in keys]
        parent, via = group.parent, group.via
        assert len(parent) == len(via) == len(group)
        assert (parent[0], via[0]) == (-1, -1)
        assert list(parent[1:]) == sorted(parent[1:])
        for i in range(1, len(group)):
            assert 0 <= parent[i] < i
            assert eng.mul(keys[parent[i]], tabs[via[i]]) == keys[i]


def test_closure_records_generators_past_a_byte() -> None:
    """`via` is not narrowed to a byte: behind 300 copies of the identity,
    the generators of GO4+(2) make every element, with via 300 and up."""
    gens = oracle.standard_generators("GOplus", 4, 2)
    padded = [oracle.MatrixGF.identity(gens[0].field, 4)] * 300 + gens
    group = oracle.close_group(padded)
    assert group.index.keys() == oracle.close_group(gens).index.keys()
    assert min(group.via[1:]) == 300
    assert max(group.via) == 299 + len(gens)
    assert all(list(row) == list(range(72)) for row in group.right[:300])


# sha256 of json.dumps([right as lists, parent, via]) for each generating
# pair, pinned from the closure that made one engine product per element
# and generator: a closure that multiplies another way must number the
# same elements the same way.
_CLOSURE_DIGESTS = {
    ("Sp", 4, 3):
        "c07af31ef67b9530b16c7ddd3fdd8e28d4c15f9c1ccc48c2731f78b888cffd65",
    ("SU", 4, 2):
        "12651e9dfd5b3cad61b94a6e60da55a9829bad5bf1e586f49178c0db245f0082",
    ("Sp", 4, 2):
        "70d8544748cf2ff4cb3eda6be9339d2bfe821ce3429dcc19ea9f5fc248be1691",
    ("GOplus", 4, 2):
        "137a2357ce6d5183c04ec95f7b4db9c75d73ac9713e0f8718042f1356d25c50b",
}


@pytest.mark.parametrize("family, dim, q", sorted(_CLOSURE_DIGESTS))
def test_closure_tables_are_pinned(family, dim, q) -> None:
    group = oracle.close_group(oracle._generating_pair(family, dim, q))
    text = json.dumps(
        [[list(row) for row in group.right], list(group.parent), list(group.via)]
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _CLOSURE_DIGESTS[family, dim, q]


def _row_tables_of(monkeypatch, gens):
    """The closure's row tables for gens, and its group, caught by stopping
    the closure at its first new element."""
    built = []
    row_tables = oracle._row_tables

    def recording(group):
        built.append((group, row_tables(group)))
        return built[-1][1]

    monkeypatch.setattr(oracle, "_row_tables", recording)
    with pytest.raises(ResourceError):
        oracle.close_group(gens, cap=1)
    monkeypatch.undo()
    ((group, tables),) = built
    return group, tables


def test_row_tables_are_engine_products(monkeypatch) -> None:
    """Entry v of generator g's table is the index of the row v * g as
    MatrixGF computes it, over every row v of GF(q)^dim, for the six
    generating pairs, SL2(5), SL2(9) and SL2(17) (two-byte rows); the byte
    tables map the unused indices past q^dim, never read, to zero."""
    pairs = [
        oracle._generating_pair(*name)
        for name, words in oracle._PAIR_WORDS.items()
        if words
    ]
    for gens in pairs + [_sl2(q).generators for q in (5, 9, 17)]:
        group, tables = _row_tables_of(monkeypatch, gens)
        fld, dim = group.field, group.dim
        q, vectors = fld.q, fld.q**dim
        assert len(tables) == len(gens)
        for g, table in zip(gens, tables):
            assert len(table) == (256 if vectors <= 256 else vectors), fld
            assert not any(table[vectors:]), fld
            for v in range(vectors):
                row = [v // q**c % q for c in range(dim)]
                padded = [row] + [[0] * dim] * (dim - 1)
                image = (oracle.MatrixGF(fld, padded) * g).rows[0]
                assert table[v] == sum(c * q**i for i, c in enumerate(image)), fld


def test_closure_makes_no_product_past_its_row_tables(monkeypatch) -> None:
    """Each product of the closure is a row lookup: the only _Engine.mul
    calls are the tables' one per row vector and generator."""
    muls = 0
    mul = oracle._Engine.mul

    def counting_mul(self, key, tables):
        nonlocal muls
        muls += 1
        return mul(self, key, tables)

    monkeypatch.setattr(oracle._Engine, "mul", counting_mul)
    for gens, order in (
        (oracle._generating_pair("GOplus", 4, 2), 72),
        (oracle._generating_pair("Sp", 4, 3), 51840),
        (_sl2(17).generators, 4896),
    ):
        muls = 0
        group = oracle.close_group(gens)
        assert len(group) == order
        assert muls == len(gens) * group.field.q**group.dim > 0, order


def test_closure_row_space_bound(monkeypatch) -> None:
    """GF(4)^4, at exactly 256 rows, closes on byte rows; SL2(17), at 289,
    on two-byte rows with the spectrum of PSL2(17); GF(3)^6 (729 rows of two
    bytes, six to a key) and GF(257)^2 (past 65536 rows) raise
    UnsupportedError, exit 3, before any product."""
    su4_2 = oracle.close_group(oracle._generating_pair("SU", 4, 2))
    assert (su4_2.row_code, len(su4_2)) == ("B", 25920)
    sl2_17 = _sl2(17)
    assert (sl2_17.row_code, len(sl2_17)) == ("H", 17 * 288)
    centre = oracle.centre_of(sl2_17)
    assert len(centre) == 2
    assert oracle.element_orders(sl2_17, centre).gens == (8, 9, 17)

    def no_product(self, key, tables):
        raise AssertionError("product before the row space bound")

    too_wide = (
        oracle.standard_generators("Sp", 6, 3),
        [oracle.MatrixGF(oracle.field_of_order(257), ((1, 1), (0, 1)))],
    )
    monkeypatch.setattr(oracle._Engine, "mul", no_product)
    for gens in too_wide:
        with pytest.raises(UnsupportedError, match="keys hold 8 bytes") as err:
            oracle.close_group(gens)
        assert err.value.exit_code == 3


def _order_products(n: int, shifts: int) -> int:
    """Engine products _central_order makes for an element of order n
    modulo a centre with `shifts` elements other than the identity: n - 1
    baby steps while n <= B = _BABY_STEPS; past B, all B - 1 baby steps,
    one translate per shift of each of the B - 1 powers, and one giant
    step per window of B after the first, up to the one holding n."""
    baby = oracle._BABY_STEPS
    if n <= baby:
        return n - 1
    return (baby - 1) * (1 + shifts) + -(-n // baby) - 1


def test_element_orders_multiplies_only_in_its_power_walks(monkeypatch) -> None:
    """Conjugation is a lookup, so the class sweep makes no _Engine.mul
    call and builds no engine for dim^2 x dim^2 matrices, and the only
    _Engine.mul calls of element_orders are the centre check of
    _validated_centre and the steps each class's order takes in
    _central_order, on SL2(9) and the Sp4(3) pair, with and without the
    centre.  Sp4(3) has elements of order 18, past the baby steps."""
    engines = []
    engine = oracle._engine

    def recording_engine(fld, dim):
        engines.append(dim)
        return engine(fld, dim)

    muls = 0
    mul = oracle._Engine.mul

    def counting_mul(self, key, tables):
        nonlocal muls
        muls += 1
        return mul(self, key, tables)

    orders = []
    order = oracle._central_order

    def recording_order(eng, key, *args):
        n = order(eng, key, *args)
        orders.append(n)
        return n

    sp4_3 = oracle.close_group(oracle._generating_pair("Sp", 4, 3))
    monkeypatch.setattr(oracle, "_engine", recording_engine)
    monkeypatch.setattr(oracle._Engine, "mul", counting_mul)
    monkeypatch.setattr(oracle, "_central_order", recording_order)
    for group, walks, tops in ((_sl2(9), 11, (10, 5)), (sp4_3, 32, (18, 12))):
        full_centre = oracle.centre_of(group)
        for centre, top in zip((None, full_centre), tops):
            shifts = len(centre) - 1 if centre else 0
            group.__dict__.pop("classes")
            muls = 0
            engines.clear()
            assert len(group.classes) == walks + len(full_centre), group.field
            assert muls == 0 and set(engines) <= {group.dim}, group.field
            oracle._validated_centre(group.engine, group.generators, centre)
            checks, muls = muls, 0
            orders.clear()
            oracle.element_orders(group, centre)
            assert set(engines) <= {group.dim}, group.field
            assert len(orders) == walks + (centre is None), group.field
            assert max(orders) == top, group.field
            products = sum(_order_products(n, shifts) for n in orders)
            assert muls == checks + products > 0, group.field


def test_enumerate_group_sweeps_the_classes_once(monkeypatch) -> None:
    """centre_of and element_orders share one class sweep: an uncached
    enumeration fills one conjugation table per generator of the pair."""
    monkeypatch.delenv("ORDSPEC_CACHE_DIR", raising=False)
    filled = []
    places = oracle._conjugation_places

    def recording_places(group, j):
        filled.append(j)
        return places(group, j)

    monkeypatch.setattr(oracle, "_conjugation_places", recording_places)
    for family, dim, q in (("GOplus", 4, 2), ("Sp", 4, 3)):
        filled.clear()
        oracle.enumerate_group(family, dim, q)
        assert filled == [0, 1], family


def test_sample_orders_builds_the_centre_tables_once(monkeypatch) -> None:
    """The giant steps' translates reuse one table set of -I for all 1000
    words of Sp6(3), of which 251 reach the giant phase."""
    gens = oracle.standard_generators("Sp", 6, 3)
    centre = oracle.central_scalars("Sp", 6, 3)
    eng = oracle._engine(gens[0].field, 6)
    minus = next(eng.encode(z.rows) for z in centre if z.rows[0][0] != 1)
    built = []
    tables = oracle._Engine.tables

    def counting_tables(self, key):
        if key == minus:
            built.append(key)
        return tables(self, key)

    monkeypatch.setattr(oracle._Engine, "tables", counting_tables)
    oracle.sample_orders(gens, 1000, seed=12345, centre=centre)
    assert len(built) == 1


def test_power_walk_stops_at_the_bound() -> None:
    # [[1, 1], [0, 1]] has order 5 over GF(5): order 5 is allowed by a
    # bound of 5 and is an error under a bound of 4; under a bound of 1
    # only a central element has an order
    fld = oracle.field_of_order(5)
    eng = oracle._Engine(fld, 2)
    key = eng.encode(((1, 1), (0, 1)))
    assert oracle._central_order(eng, key, {eng.identity}, [], 5) == 5
    with pytest.raises(ResourceError, match="exceeds 4"):
        oracle._central_order(eng, key, {eng.identity}, [], 4)
    assert oracle._central_order(eng, eng.identity, {eng.identity}, [], 1) == 1
    with pytest.raises(ResourceError, match="exceeds 1"):
        oracle._central_order(eng, key, {eng.identity}, [], 1)


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
    centre = oracle.centre_of(group)
    assert set(centre) == _brute_force_centre(group)
    assert centre == [oracle.MatrixGF.identity(group.field, 4)]
    # GL2(2) = S3: the identity, then the class of the first generator,
    # an involution, then the two elements of order 3
    assert [size for _, size in group.classes] == [1, 3, 2]


def test_enumerate_group_cache_write_is_atomic(tmp_path, monkeypatch) -> None:
    def torn_dump(obj, fh, **kwargs):
        fh.write('{"group_order":')
        raise OSError("disk full")

    monkeypatch.setattr(oracle.json, "dump", torn_dump)
    with pytest.raises(UsageError, match="disk full"):
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


def test_enumerate_group_unreadable_entry_is_a_miss(tmp_path, monkeypatch) -> None:
    oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    (entry,) = tmp_path.iterdir()
    good = entry.read_text(encoding="utf-8")

    def refusing_open(path, *args, **kwargs):
        if str(path) == str(entry):
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, *args, **kwargs)

    closures = []
    close_group = oracle.close_group

    def counting_close_group(*args, **kwargs):
        closures.append(1)
        return close_group(*args, **kwargs)

    monkeypatch.setattr(oracle, "open", refusing_open, raising=False)
    monkeypatch.setattr(oracle, "close_group", counting_close_group)
    order, centre_size, spec = oracle.enumerate_group(
        "GOplus", 4, 2, cache_dir=str(tmp_path)
    )
    assert closures == [1]
    assert (order, centre_size, spec.gens) == (72, 1, (4, 6))
    assert list(tmp_path.iterdir()) == [entry]
    assert entry.read_text(encoding="utf-8") == good


def test_enumerate_group_entry_path_is_a_directory(tmp_path) -> None:
    """A directory where the entry belongs cannot be read (a miss) nor
    replaced: the write raises UsageError naming the path and leaves no
    temporary file behind."""
    entry = tmp_path / "GOplus4q2-9806dafe1b79.json"
    entry.mkdir()
    with pytest.raises(UsageError, match="cannot write cache entry .*GOplus4q2"):
        oracle.enumerate_group("GOplus", 4, 2, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == [entry]
    assert entry.is_dir()


def test_engine_is_shared_and_unchanged_by_use() -> None:
    """One engine per (field, dim), which closure, sampling and the twisted
    order all use; none of them changes its state."""
    fld = oracle.field(3, 1)
    eng = oracle._engine(fld, 4)
    assert oracle._engine(oracle.field_of_order(3), 4) is eng
    before = copy.deepcopy(vars(eng))
    gens = oracle.standard_generators("Sp", 4, 3)
    group = oracle.close_group(gens)
    assert group.engine is eng
    oracle.sample_orders(gens, 20, seed=5)
    assert vars(eng) == before
    twisting = oracle._engine(oracle.field(2, 4), 4)
    before = copy.deepcopy(vars(twisting))
    assert oracle.twisted_order_b_gamma(4) == 8
    assert oracle._engine(oracle.field(2, 4), 4) is twisting
    assert vars(twisting) == before


def test_engine_matches_matrix_reference() -> None:
    """The packed engine, directly and behind MatrixGF's product, against
    the entry-by-entry product: encode/decode round-trip and products, over
    fields of both characteristics with one or several digits per entry and
    one to eight digit fields per slice, in dimensions 1 to 6."""
    rng = random.Random(53)
    qs = (
        2, 3, 4, 5, 7, 8, 9, 11, 13, 25, 27, 49, 64, 81, 121, 169, 243, 1024,
        2187, 4096,
    )
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
                want = _product(a, b)
                assert eng.decode(product) == want.rows, (q, dim)
                assert a * b == want, (q, dim)


def test_slice_widths_follow_the_table_rule() -> None:
    """A slice takes the most digit fields whose table has at most 256
    entries and whose index is at most 12 bits wide."""
    want = {2: 8, 3: 4, 5: 3, 7: 2, 11: 2, 13: 2, 17: 1, 257: 1}
    for p, width in want.items():
        eng = oracle._Engine(oracle.field_of_order(p), 8)
        widths = [end - first for first, end, *_ in eng.slices]
        assert widths[0] == width, p
        assert sum(widths) == 8 and max(widths) == width, p


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
        # every generator divides 72, but no generator is divisible by 3
        ("spectrum", {**good["spectrum"], "gens": ["4"]}),
        # the primes 2 and 3 of 72 are covered, but 16 does not divide 72
        ("spectrum", {**good["spectrum"], "gens": ["6", "16"]}),
    )
    # consistent in itself (144 = 4 * 36 = 6 * 24) but not the order of
    # GO+(4, 2), so only the formula order exposes it
    doubled = {**good, "group_order": "144"}
    for obj in [{**good, field: value} for field, value in tampered] + [doubled]:
        entry.write_text(json.dumps(obj), encoding="utf-8")
        order, centre_size, spec = oracle.enumerate_group(
            "GOplus", 4, 2, cache_dir=str(tmp_path)
        )
        assert (order, centre_size, spec.gens) == (72, 1, (4, 6)), obj
        assert list(tmp_path.iterdir()) == [entry]
        assert entry.read_text(encoding="utf-8") == good_text, obj
    entry.write_text(json.dumps(good), encoding="utf-8")
    order, centre_size, spec = oracle.enumerate_group(
        "GOplus", 4, 2, cache_dir=str(tmp_path)
    )
    assert (order, centre_size, spec.gens) == (72, 1, (4, 6))
    # a hit reads only the generators: a stored label, part or group is
    # never returned, and a part that names no prime breaks nothing
    relabelled = {
        "label": "S4(3)",
        "part": "5'",
        "group": {"family": "Sp", "n": 2, "p": 3, "m": 1},
    }
    for stored in ({"part": "0'"}, relabelled):
        spectrum = {**good["spectrum"], **stored}
        entry.write_text(json.dumps({**good, "spectrum": spectrum}), encoding="utf-8")
        order, centre_size, spec = oracle.enumerate_group(
            "GOplus", 4, 2, cache_dir=str(tmp_path)
        )
        assert (order, centre_size, spec.gens) == (72, 1, (4, 6)), stored
        assert (spec.label, spec.part, spec.group) == ("enumerated[72]", "full", None)


@pytest.mark.parametrize(
    "family, dim, q", [("Sp", 4, 2), ("Sp", 4, 3), ("SU", 4, 2), ("GOplus", 4, 2)]
)
def test_generating_pair_closes_to_the_whole_group(family, dim, q) -> None:
    """The pair reaches the product-formula order and agrees with the
    standard generators on order, centre size and spectrum."""
    pair = oracle._generating_pair(family, dim, q)
    assert len(pair) == 2
    by_pair = oracle.close_group(pair)
    by_list = oracle.close_group(oracle.standard_generators(family, dim, q))
    assert len(by_pair) == len(by_list) == oracle._matrix_group_order(family, dim, q)
    assert by_pair.index.keys() == by_list.index.keys()
    centre = oracle.centre_of(by_pair)
    assert centre == oracle.centre_of(by_list)
    assert (
        oracle.element_orders(by_pair, centre).gens
        == oracle.element_orders(by_list, centre).gens
    )


def test_matrix_group_order_formulas() -> None:
    """Against the closed-form side: |Sp(2n, q)| is |S_2n(q)| times the
    centre size gcd(2, q - 1), and |SU(4, q)| is |GU(4, q)| / (q + 1) with
    |GU(n, q)| = q^(n(n-1)/2) prod_{i<=n} (q^i - (-1)^i)."""
    for family, dim, q in oracle.SUPPORTED_GENERATORS:
        got = oracle._matrix_group_order(family, dim, q)
        if family == "Sp":
            simple = primegraph.group_order(spectra.group_id("Sp", dim // 2, q))
            assert got == simple.value * math.gcd(2, q - 1), (dim, q)
        elif family == "SU":
            gu = q**6 * math.prod(q**i - (-1) ** i for i in range(1, 5))
            assert got == gu // (q + 1), q
        else:
            assert got == 72
    assert set(oracle._PAIR_WORDS) <= set(oracle.SUPPORTED_GENERATORS)


def test_enumerate_group_rejects_a_pair_that_generates_less(monkeypatch) -> None:
    """Negative control: the same word twice generates a cyclic subgroup,
    which the order check must refuse rather than report."""
    word = oracle._PAIR_WORDS[("Sp", 4, 3)][0]
    monkeypatch.setitem(oracle._PAIR_WORDS, ("Sp", 4, 3), (word, word))
    with pytest.raises(AssertionError, match="internal: .* not 51840"):
        oracle.enumerate_group("Sp", 4, 3)


def test_enumerate_group_without_a_pair_is_a_resource_error() -> None:
    with pytest.raises(ResourceError, match="9170703360 elements"):
        oracle.enumerate_group("Sp", 6, 3)


def _seeded_word_keys(family: str, dim: int, q: int, count: int, seed: int):
    """The engine, `count` seeded random words in the standard generators
    as keys, the centre's keys and the tables of its non-identity keys."""
    gens = oracle.standard_generators(family, dim, q)
    eng = oracle._engine(gens[0].field, dim)
    tabs = [eng.tables(eng.encode(g.rows)) for g in gens]
    rng = random.Random(seed)
    keys = []
    for _ in range(count):
        key = eng.identity
        for _ in range(rng.randint(2, 24)):
            key = eng.mul(key, rng.choice(tabs))
        keys.append(key)
    centre = oracle.central_scalars(family, dim, q)
    return (eng, keys, *oracle._validated_centre(eng, gens, centre))


def _walk_order(eng, key: int, centre) -> int:
    """The order of g = `key` modulo the centre by the whole power walk:
    one engine product per step until a power is central."""
    tabs, acc, n = eng.tables(key), key, 1
    while acc not in centre:
        acc, n = eng.mul(acc, tabs), n + 1
    return n


@pytest.mark.parametrize("baby_steps", [2, 5, 16])
def test_central_order_agrees_with_the_power_walk(monkeypatch, baby_steps) -> None:
    """Baby steps and giant steps give the order the full walk gives, also
    modulo the centre +-I of Sp4(3) and Sp6(3), where a giant step can land
    on -g^j rather than on g^j."""
    monkeypatch.setattr(oracle, "_BABY_STEPS", baby_steps)
    for family, dim, q in (
        ("Sp", 4, 3), ("Sp", 6, 3), ("Sp", 4, 4), ("SU", 4, 8), ("GOplus", 4, 2)
    ):
        eng, keys, centre, shifts = _seeded_word_keys(family, dim, q, 120, seed=21)
        for key in keys:
            walk = _walk_order(eng, key, centre)
            got = oracle._central_order(eng, key, centre, shifts, 10**6)
            assert got == walk, (family, dim, q, baby_steps)


def _cycle_key(k: int):
    """The engine for k x k matrices over GF(2) and the key of the k-cycle
    permutation matrix, whose order is exactly k."""
    eng = oracle._Engine(oracle.field_of_order(2), k)
    rows = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    return eng, eng.encode(rows)


def test_central_order_on_both_sides_of_the_baby_steps() -> None:
    assert oracle._BABY_STEPS == 16
    for k in (15, 16, 17, 32, 33):
        eng, key = _cycle_key(k)
        assert oracle._central_order(eng, key, {eng.identity}, [], 10**6) == k, k
    eng, _ = _cycle_key(17)
    assert oracle._central_order(eng, eng.identity, {eng.identity}, [], 10**6) == 1
    # -I is central in Sp4(3): order 1 modulo the centre
    eng, _, centre, shifts = _seeded_word_keys("Sp", 4, 3, 1, seed=0)
    for z in centre:
        assert oracle._central_order(eng, z, centre, shifts, 10**6) == 1
    # diag(2, 1/2) over GF(37), where 2 has order 36: its order modulo
    # +-I is 18, and g^32 = -g^14 is found only among the translates
    eng = oracle._Engine(oracle.field_of_order(37), 2)
    minus = eng.encode(((36, 0), (0, 36)))
    key = eng.encode(((2, 0), (0, 19)))
    got = oracle._central_order(
        eng, key, {eng.identity, minus}, [eng.tables(minus)], 10**6
    )
    assert got == 18


@pytest.mark.parametrize("k", [5, 16, 17, 32, 33, 34])
def test_central_order_stops_at_the_bound(k) -> None:
    """Order k passes bound k and is a ResourceError under bound k - 1:
    in the baby phase (k <= 17), past the last giant step (33) and at a
    giant step that lands beyond the bound (32, 34)."""
    eng, key = _cycle_key(k)
    assert oracle._central_order(eng, key, {eng.identity}, [], k) == k
    with pytest.raises(ResourceError, match=f"exceeds {k - 1}"):
        oracle._central_order(eng, key, {eng.identity}, [], k - 1)


def test_sample_orders_pinned_past_the_baby_steps() -> None:
    """SU4(16) and SU4(32) have orders up to 4097 and 32769, so most of
    their words end in the giant phase; these tuples come from the whole
    power walk."""
    want = {
        16: (1, 2, 4, 6, 15, 17, 30, 34, 85, 102, 170, 255, 257, 510, 771,
             1285, 3855, 4097),
        32: (1, 2, 4, 6, 31, 33, 41, 62, 66, 341, 682, 1023, 1025, 2046,
             3641, 6355, 10923, 31775, 32769),
    }
    for q, orders in want.items():
        gens = oracle.standard_generators("SU", 4, q)
        centre = oracle.central_scalars("SU", 4, q)
        assert oracle.sample_orders(gens, 100, seed=2024, centre=centre) == orders
