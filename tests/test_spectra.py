"""Unit tests for the closed-form spectrum generator lists.

Frozen expected lists were derived by hand from the closed forms and
cross-checked against brute-force matrix enumeration where feasible (see
test_oracle and test_acceptance for the machine side of that bargain).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ordspec import arith, spectra
from ordspec.errors import DomainError, OrdspecError, UnsupportedError
from ordspec.spectra import BN, DMINUS, DPLUS, GO8MINUS, O8MINUS, O8PLUS, SP

# (family, n, q) -> reduced generator list of the full spectrum
FROZEN_FULL = {
    (SP, 2, 3): (5, 9, 12),
    (SP, 2, 4): (4, 6, 10, 15, 17),
    (SP, 2, 5): (12, 13, 20, 30),
    (SP, 3, 2): (7, 8, 9, 10, 12, 15),
    (SP, 3, 3): (13, 14, 20, 24, 30, 36),
    (SP, 3, 4): (8, 12, 20, 30, 34, 51, 63, 65, 85),
    (SP, 4, 2): (14, 17, 18, 20, 21, 24, 30),
    (SP, 5, 2): (16, 24, 28, 31, 33, 34, 35, 36, 40, 42, 45, 51, 60),
    (BN, 3, 3): (8, 12, 13, 14, 15, 18, 20),
    (O8PLUS, 4, 2): (7, 8, 9, 10, 12, 15),
    (O8PLUS, 4, 3): (8, 12, 13, 14, 15, 18, 20),
    (O8PLUS, 4, 4): (8, 12, 20, 30, 34, 63, 65, 255),
    (O8PLUS, 4, 5): (24, 25, 60, 62, 63, 65, 156),
    (O8MINUS, 4, 2): (8, 9, 12, 17, 21, 30),
    (GO8MINUS, 4, 2): (14, 17, 18, 20, 21, 24, 30),
}

# (family, n, q) -> reduced generator list of the p'-spectrum
FROZEN_P_PRIME = {
    (DPLUS, 4, 2): (7, 9, 15),
    (DPLUS, 4, 3): (8, 13, 14, 20),
    (DMINUS, 4, 2): (9, 15, 17, 21),
}


def _closure(gens) -> set[int]:
    """Divisor closure by trial division, independent of the library's
    contains()."""
    out: set[int] = set()
    for g in gens:
        for d in range(1, g + 1):
            if g % d == 0:
                out.add(d)
    return out


def test_frozen_full_spectra() -> None:
    for (family, n, q), want in FROZEN_FULL.items():
        spec = spectra.spectrum(spectra.group_id(family, n, q))
        assert spec.gens == want, (family, n, q, spec.gens)


def test_frozen_p_prime_spectra() -> None:
    for (family, n, q), want in FROZEN_P_PRIME.items():
        spec = spectra.spectrum_p_prime(spectra.group_id(family, n, q))
        assert spec.gens == want, (family, n, q, spec.gens)


def test_isospectral_pairs() -> None:
    s6_2 = spectra.spectrum(spectra.group_id(SP, 3, 2))
    o8p_2 = spectra.spectrum(spectra.group_id(O8PLUS, 4, 2))
    assert spectra.equals(s6_2, o8p_2)
    o7_3 = spectra.spectrum(spectra.group_id(BN, 3, 3))
    o8p_3 = spectra.spectrum(spectra.group_id(O8PLUS, 4, 3))
    assert spectra.equals(o7_3, o8p_3)
    s8_2 = spectra.spectrum(spectra.group_id(SP, 4, 2))
    go8_2 = spectra.spectrum(spectra.group_id(GO8MINUS, 4, 2))
    assert spectra.equals(s8_2, go8_2)


def test_contains_matches_divisor_closure() -> None:
    for key in ((SP, 2, 3), (SP, 3, 4), (O8MINUS, 4, 2), (BN, 3, 3)):
        spec = spectra.spectrum(spectra.group_id(*key))
        closure = _closure(spec.gens)
        for a in range(1, max(closure) + 5):
            assert spectra.contains(spec, a) == (a in closure), (key, a)


def test_is_sub_spectrum_witnesses() -> None:
    o7 = spectra.spectrum(spectra.group_id(BN, 3, 3))
    s6 = spectra.spectrum(spectra.group_id(SP, 3, 3))
    ok, witness = spectra.is_sub_spectrum(o7, s6)
    assert ok and witness is None
    ok, witness = spectra.is_sub_spectrum(s6, o7)
    assert not ok
    assert witness is not None
    assert spectra.contains(s6, witness)
    assert not spectra.contains(o7, witness)


def test_reduce_gens_properties() -> None:
    rng = random.Random(31)
    for _ in range(60):
        values = {rng.randint(1, 400) for _ in range(rng.randint(1, 25))}
        spec = spectra.reduce_gens(values, label="t", part="full")
        assert _closure(spec.gens) == _closure(values)
        for i, a in enumerate(spec.gens):
            for b in spec.gens[i + 1 :]:
                assert b % a != 0
        again = spectra.reduce_gens(spec.gens, label="t", part="full")
        assert again.gens == spec.gens
    with pytest.raises(DomainError):
        spectra.reduce_gens((), label="t", part="full")


def _reduce_by_all_later(values) -> tuple[int, ...]:
    """The quadratic reference: keep v unless some larger value is a
    multiple of it, whether or not that value is kept itself."""
    vals = sorted(set(values))
    return tuple(
        v
        for i, v in enumerate(vals)
        if not any(w % v == 0 for w in vals[i + 1 :])
    )


def test_reduce_gens_matches_quadratic_reference() -> None:
    rng = random.Random(67)
    for _ in range(200):
        top = rng.choice((12, 100, 5000))
        values = [rng.randint(1, top) for _ in range(rng.randint(1, 40))]
        assert spectra.reduce_gens(values).gens == _reduce_by_all_later(values)
    # chains and divisor lattices, where most values divide a dropped one
    for values in ((1, 2, 4, 8, 16), (2, 3, 6, 12, 18, 36), (5,), (7, 7, 1)):
        assert spectra.reduce_gens(values).gens == _reduce_by_all_later(values)
    with pytest.raises(DomainError):
        spectra.reduce_gens((3, 0, 6))


def test_spectrum_gens_validation() -> None:
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "full", (4, 8))
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "full", (8, 4))
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "3'", (5, 9))
    with pytest.raises(DomainError, match="positive"):
        spectra.SpectrumGens("x", "full", (0, 5))
    with pytest.raises(DomainError, match="non-positive"):
        spectra.contains(spectra.SpectrumGens("x", "full", (4, 6)), 0)


def test_serialization_round_trip() -> None:
    for key in FROZEN_FULL:
        spec = spectra.spectrum(spectra.group_id(*key))
        text = spectra.serialize(spec)
        back = spectra.parse_spectrum(text)
        assert back == spec
        assert spectra.serialize(back) == text
    spec = spectra.spectrum_p_prime(spectra.group_id(DPLUS, 5, 2))
    assert spectra.parse_spectrum(spectra.serialize(spec)) == spec


def test_parse_rejects_malformed() -> None:
    from ordspec.errors import UsageError

    with pytest.raises(UsageError):
        spectra.parse_spectrum("not json")
    with pytest.raises(UsageError):
        spectra.parse_spectrum('{"label": "x"}')
    spec = spectra.spectrum(spectra.group_id(SP, 2, 3))
    good = json.loads(spectra.serialize(spec))
    assert "group" in good
    for bad in ({"group": {}}, {"group": 5}, {"part": "x"}):
        with pytest.raises(UsageError):
            spectra.parse_spectrum(json.dumps({**good, **bad}))


def test_parse_rejects_well_formed_json_that_breaks_an_invariant() -> None:
    from ordspec.errors import UsageError

    spec = spectra.spectrum(spectra.group_id(SP, 2, 3))
    good = json.loads(spectra.serialize(spec))
    group = good["group"]
    for bad in (
        {"gens": ["4", "2"]},
        {"gens": []},
        {"group": {**group, "family": "Nope", "p": 4}},
        {"group": {**group, "p": 4, "m": 1}},
        {"group": {**group, "n": 1}},
        {"group": {"family": "Bn", "n": 3, "p": 2, "m": 1}},
    ):
        with pytest.raises(UsageError):
            spectra.parse_spectrum(json.dumps({**good, **bad}))
    # no generator is a multiple of 4 or -3, so only the part itself is wrong
    for part in ("0'", "4'", "-3'", "x'", "03'", 3):
        with pytest.raises(UsageError):
            spectra.parse_spectrum(
                json.dumps({**good, "part": part, "gens": ["5", "7"]})
            )
        with pytest.raises(DomainError):
            spectra.SpectrumGens("x", part, (5, 7))


def test_p_prime_is_strip_of_full_where_both_exist() -> None:
    for key in ((SP, 2, 3), (SP, 3, 3), (SP, 3, 4), (BN, 3, 3),
                (O8PLUS, 4, 3), (O8MINUS, 4, 2)):
        group = spectra.group_id(*key)
        full = spectra.spectrum(group)
        stripped = spectra.reduce_gens(
            {arith.coprime_part(g, group.p) for g in full.gens},
            label=full.label, part=f"{group.p}'",
        )
        assert spectra.spectrum_p_prime(group).gens == stripped.gens, key


def test_semisimple_formula_agrees_with_strip_at_n4() -> None:
    # Dplus(4, q) and Dminus(4, even q) have both a dedicated semisimple
    # closed form and a full closed form to strip; they must agree.
    for q in (2, 3, 4, 5, 7, 8, 9):
        semi = spectra.spectrum_p_prime(spectra.group_id(DPLUS, 4, q))
        via_full = spectra.spectrum(spectra.group_id(O8PLUS, 4, q))
        p = spectra.split_prime_power(q)[0]
        stripped = spectra.reduce_gens(
            {arith.coprime_part(g, p) for g in via_full.gens},
            label=via_full.label, part=f"{p}'",
        )
        assert semi.gens == stripped.gens, q
    for q in (2, 4, 8, 16):
        semi = spectra.spectrum_p_prime(spectra.group_id(DMINUS, 4, q))
        via_full = spectra.spectrum(spectra.group_id(O8MINUS, 4, q))
        stripped = spectra.reduce_gens(
            {arith.coprime_part(g, 2) for g in via_full.gens},
            label=via_full.label, part="2'",
        )
        assert semi.gens == stripped.gens, q


def test_spectrum_of_part_names_each_part_and_rejects_others() -> None:
    group = spectra.group_id(SP, 2, 3)
    assert spectra.spectrum_of_part(group, "full") == spectra.spectrum(group)
    assert (
        spectra.spectrum_of_part(group, "p-prime")
        == spectra.spectrum_p_prime(group)
    )
    for part in ("bogus", "3'", "", None):
        with pytest.raises(DomainError):
            spectra.spectrum_of_part(group, part)


def test_excluded_and_unsupported_parameters() -> None:
    with pytest.raises(DomainError):
        spectra.spectrum(spectra.group_id(SP, 2, 2))
    with pytest.raises(DomainError):
        spectra.group_id(SP, 1, 3)
    with pytest.raises(DomainError):
        spectra.group_id(BN, 2, 3)
    with pytest.raises(DomainError):
        spectra.group_id(DPLUS, 3, 3)
    with pytest.raises(DomainError):
        spectra.group_id(O8MINUS, 4, 3)
    with pytest.raises(DomainError):
        spectra.group_id(SP, 4, 6)
    with pytest.raises(UnsupportedError):
        spectra.spectrum(spectra.group_id(DPLUS, 5, 2))
    with pytest.raises(UnsupportedError):
        spectra.spectrum(spectra.group_id(SP, spectra.MAX_RANK + 1, 2))


def test_hand_built_group_id_obeys_the_rules_of_group_id() -> None:
    # the group_id rejections above, with the same text where q is prime
    for family, n, q in ((SP, 1, 3), (BN, 2, 3), (DPLUS, 3, 3), (O8MINUS, 4, 3)):
        with pytest.raises(DomainError) as by_group_id:
            spectra.group_id(family, n, q)
        with pytest.raises(DomainError) as by_hand:
            spectra.GroupId(family, n, q, 1)
        assert str(by_hand.value) == str(by_group_id.value)
    for args in ((SP, 4, 6, 1), (SP, 2, 4, 1), (SP, 2, 3, 0), (GO8MINUS, 4, 3, 1)):
        with pytest.raises(DomainError):
            spectra.GroupId(*args)
    # O7(2) exists only in its normal form S6(2), with the S6(2) spectrum
    with pytest.raises(DomainError, match="O_2n\\+1 with even q is normalised to Sp"):
        spectra.GroupId(BN, 3, 2, 1)
    o7_2 = spectra.group_id(BN, 3, 2)
    assert (o7_2.family, o7_2.name()) == (SP, "S6(2)")
    assert spectra.spectrum(o7_2).gens == FROZEN_FULL[(SP, 3, 2)]
    assert spectra.group_name(BN, 3, 2) == "O7(2)"


def test_family_table_names_every_family_and_rejects_others() -> None:
    names = {
        (SP, 3, 4): "S6(4)",
        (BN, 3, 3): "O7(3)",
        (DPLUS, 6, 5): "O12+(5)",
        (DMINUS, 5, 4): "O10-(4)",
        (O8PLUS, 4, 3): "O8+(3)",
        (O8MINUS, 4, 8): "O8-(8)",
        (GO8MINUS, 4, 2): "GO8-(2)",
    }
    assert spectra.FAMILIES == tuple(family for family, _, _ in names)
    for key, name in names.items():
        assert spectra.group_id(*key).name() == name
    # an unknown family is rejected however the GroupId is made; group_id
    # splits q first, so a bad q is reported before the family
    with pytest.raises(DomainError, match="unknown family 'Nope', expected one of"):
        spectra.GroupId("Nope", 2, 3, 1)
    with pytest.raises(DomainError, match="unknown family 'Nope', expected one of"):
        spectra.group_id("Nope", 2, 3)
    with pytest.raises(DomainError, match="field size 6 is not a prime power"):
        spectra.group_id("Nope", 2, 6)


def test_group_id_normalizes_odd_dimensional_even_q() -> None:
    g = spectra.group_id(BN, 3, 4)
    assert g.family == SP
    assert g.name() == "S6(4)"
    assert spectra.spectrum(g).gens == spectra.spectrum(
        spectra.group_id(SP, 3, 4)
    ).gens


def test_split_prime_power() -> None:
    assert spectra.split_prime_power(8) == (2, 3)
    assert spectra.split_prime_power(27) == (3, 3)
    assert spectra.split_prime_power(5) == (5, 1)
    with pytest.raises(DomainError):
        spectra.split_prime_power(12)
    with pytest.raises(DomainError):
        spectra.split_prime_power(1)


def test_split_prime_power_factors_nothing(monkeypatch) -> None:
    """group_id splits q on every call.  The split factors nothing, a
    repeated q is not split again, and a q that is not a prime power is
    refused every time."""
    spectra.split_prime_power(81)
    tested, factored = [], []
    for name, log in (("is_prime", tested), ("factorize", factored)):
        real = getattr(arith, name)
        monkeypatch.setattr(
            arith, name, lambda a, real=real, log=log: log.append(a) or real(a)
        )
    assert spectra.split_prime_power(81) == spectra.split_prime_power(81) == (3, 4)
    assert tested == []
    for _ in range(2):
        with pytest.raises(DomainError):
            spectra.split_prime_power(96)
    assert tested == [96, 96]
    assert spectra.split_prime_power(7**5) == (7, 5)
    assert factored == []


def test_split_prime_power_past_trial_division_without_sympy() -> None:
    """q above 2^20, prime powers or not, split in a fresh interpreter
    where sympy cannot be imported: roots are exact integers and each is
    tested with arith.is_prime."""
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from ordspec import spectra\n"
        "from ordspec.errors import DomainError\n"
        "for q in (2**21, 3**13, 1000003**2, 1048583, 3 * 2**20, 10**12):\n"
        "    try:\n"
        "        print(q, *spectra.split_prime_power(q))\n"
        "    except DomainError as exc:\n"
        "        print(q, exc)\n"
    )
    src = str(Path(spectra.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "2097152 2 21",
        "1594323 3 13",
        "1000006000009 1000003 2",
        "1048583 1048583 1",
        "3145728 field size 3145728 is not a prime power",
        "1000000000000 field size 1000000000000 is not a prime power",
    ]


def test_integer_root_is_exact_past_float_precision() -> None:
    for a in (1, 2, 7, 8, 2**53 + 1, (2**61 - 1) ** 3, 3**200 - 1, 10**40):
        for m in range(1, 14):
            r = spectra._integer_root(a, m)
            assert r**m <= a < (r + 1) ** m, (a, m)


def _partitions(total: int, max_part: int | None = None):
    """Every partition of total into parts <= max_part, each descending."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part or total), 0, -1):
        for tail in _partitions(total - first, first):
            yield (first, *tail)


def _signed_lcms_by_enumeration(q, total, min_parts=1, sign_product=None):
    """lcm(q^n1 - d1, ..., q^ns - ds) over every partition of total with
    s >= min_parts and every sign choice with the given product."""
    out = set()
    for part in _partitions(total):
        if len(part) < min_parts:
            continue
        for signs in itertools.product((1, -1), repeat=len(part)):
            if sign_product in (None, math.prod(signs)):
                out.add(math.lcm(*(q**a - d for a, d in zip(part, signs))))
    return out


BENCHMARK_Q = (2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048, 4096,
               3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 243)


def test_lcm_states_keep_every_maximal_value_of_the_enumeration() -> None:
    """The memoised partition states give the same maximal values as the
    walk over every partition and every choice of signs, in each of the
    (min_parts, sign product) classes the closed forms read."""
    for q in BENCHMARK_Q:
        assert spectra._lcm_states(q, 0, 0) == {(1, 1, 0)}
        for total in range(1, 11):
            states = spectra._lcm_states(q, total, total)
            for min_parts, sign in ((1, None), (2, None), (3, 1), (3, -1)):
                if min_parts > total:
                    continue
                fast = {
                    v for v, s, k in states
                    if k >= min_parts and sign in (None, s)
                }
                slow = _signed_lcms_by_enumeration(q, total, min_parts, sign)
                assert fast <= slow, (q, total, min_parts, sign)
                assert (
                    spectra.reduce_gens(fast).gens == spectra.reduce_gens(slow).gens
                ), (q, total, min_parts, sign)


def test_closed_forms_past_max_rank_are_pinned(monkeypatch) -> None:
    """Sp and Bn (full) and Dplus and Dminus (p') for n = 2 .. 14 over
    every BENCHMARK_Q keep one sha256 of their canonical JSON, errors
    included, two ranks past the MAX_RANK the other tests reach."""
    monkeypatch.setattr(spectra, "MAX_RANK", 14)
    digest = hashlib.sha256()
    for family, part in (
        (SP, spectra.FULL), (BN, spectra.FULL),
        (DPLUS, spectra.PPRIME), (DMINUS, spectra.PPRIME),
    ):
        for n in range(2, 15):
            for q in BENCHMARK_Q:
                try:
                    group = spectra.group_id(family, n, q)
                    line = spectra.serialize(spectra.spectrum_of_part(group, part))
                except OrdspecError as exc:
                    line = f"{family} {n} {q}: {exc}"
                digest.update((line + "\n").encode())
    assert digest.hexdigest() == (
        "2cb5503bf108b023b3c595f71bd856f568e5bfcf79937c911b8d639fc12881ff"
    )


def test_b_subset_c_inclusion_odd_q() -> None:
    # omega(O_2n+1(q)) is always inside omega(S_2n(q)) for odd q.
    for n in (3, 4, 5):
        for q in (3, 5, 7, 9):
            lower = spectra.spectrum(spectra.group_id(BN, n, q))
            upper = spectra.spectrum(spectra.group_id(SP, n, q))
            ok, _ = spectra.is_sub_spectrum(lower, upper)
            assert ok, (n, q)


def test_generator_primes_divide_group_order() -> None:
    from ordspec import primegraph

    for key in FROZEN_FULL:
        group = spectra.group_id(*key)
        order_primes = set(primegraph.group_order(group).primes)
        spec = spectra.spectrum(group)
        spec_primes = set()
        for g in spec.gens:
            spec_primes.update(arith.factorize(g).primes)
        # every prime in a generator divides the order, and every prime
        # dividing the order is an element order (Cauchy)
        assert spec_primes == order_primes, key
