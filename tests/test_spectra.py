"""Unit tests for the closed-form spectrum generator lists.

Frozen expected lists were derived by hand from the closed forms and
cross-checked against brute-force matrix enumeration where feasible (see
test_oracle and test_acceptance for the machine side of that bargain).
"""

from __future__ import annotations

import json
import random

import pytest

from ordspec import arith, spectra
from ordspec.errors import DomainError, UnsupportedError
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


def test_divisor_closure_function() -> None:
    spec = spectra.spectrum(spectra.group_id(SP, 2, 3))
    assert set(spectra.divisor_closure(spec)) == _closure((5, 9, 12))
    assert spectra.divisor_closure(spec) == sorted(spectra.divisor_closure(spec))


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


def test_spectrum_gens_validation() -> None:
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "full", (4, 8))
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "full", (8, 4))
    with pytest.raises(DomainError):
        spectra.SpectrumGens("x", "3'", (5, 9))


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
            spec_primes.update(arith.prime_divisors(g))
        # every prime in a generator divides the order, and every prime
        # dividing the order is an element order (Cauchy)
        assert spec_primes == order_primes, key
