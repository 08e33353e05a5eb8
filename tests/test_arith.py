"""Unit tests for the exact arithmetic, with sympy as the reference."""

from __future__ import annotations

import random

import pytest
import sympy
from sympy.ntheory.residue_ntheory import n_order
from sympy.polys.specialpolys import cyclotomic_poly

from ordspec import arith
from ordspec.errors import DomainError


def test_factorize_known_values() -> None:
    assert arith.factorize(1).factors == {}
    assert arith.factorize(720).factors == {2: 4, 3: 2, 5: 1}
    assert arith.factorize(97).factors == {97: 1}
    assert arith.factorize(2**10 * 3**5).factors == {2: 10, 3: 5}


def test_factorization_validates_itself() -> None:
    with pytest.raises(DomainError):
        arith.Factorization(12, {4: 1, 3: 1})
    with pytest.raises(DomainError):
        arith.Factorization(12, {2: 1, 3: 1})
    with pytest.raises(DomainError):
        arith.Factorization(0, {})
    with pytest.raises(DomainError):
        arith.Factorization(8, {2: 0})


def test_factorization_accessors() -> None:
    f = arith.factorize(360)
    assert f.primes == (2, 3, 5)
    assert str(f) == "2^3 * 3^2 * 5"
    assert str(arith.factorize(1)) == "1"


def test_factorize_rejects_nonpositive() -> None:
    with pytest.raises(DomainError):
        arith.factorize(0)
    with pytest.raises(DomainError):
        arith.factorize(-6)


def test_factorize_random_products_round_trip() -> None:
    rng = random.Random(20260823)
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(50):
        value = 1
        for p in rng.sample(small_primes, rng.randint(1, 4)):
            value *= p ** rng.randint(1, 3)
        fact = arith.factorize(value)
        rebuilt = 1
        for p, e in fact.factors.items():
            rebuilt *= p**e
        assert rebuilt == value


def test_divisors() -> None:
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(DomainError):
        arith.divisors(0)


def test_r_part_and_coprime_part() -> None:
    assert arith.r_part(720, 2) == 16
    assert arith.r_part(720, 7) == 1
    assert arith.coprime_part(720, 2) == 45
    assert arith.coprime_part(720, 3) == 80
    with pytest.raises(DomainError):
        arith.r_part(12, 4)
    with pytest.raises(DomainError):
        arith.r_part(0, 2)


def test_r_part_times_coprime_part_is_identity() -> None:
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(1, 10**6)
        r = rng.choice([2, 3, 5, 7, 11])
        part = arith.r_part(a, r)
        rest = arith.coprime_part(a, r)
        assert part * rest == a
        assert rest % r != 0
        assert part == r ** max(
            e for e in range(40) if a % r**e == 0
        )


def test_mult_order_definition() -> None:
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(80):
        r = rng.choice(primes)
        q = rng.randint(2, 1000)
        if q % r == 0:
            with pytest.raises(DomainError):
                arith.mult_order(q, r)
            continue
        n = arith.mult_order(q, r)
        assert pow(q, n, r) == 1
        # minimality: no proper divisor of n works
        for d in arith.divisors(n)[:-1]:
            assert pow(q, d, r) != 1
    with pytest.raises(DomainError):
        arith.mult_order(2, 15)


def test_cyclotomic_values() -> None:
    assert arith.cyclotomic_value(1, 5) == 4
    assert arith.cyclotomic_value(2, 5) == 6
    assert arith.cyclotomic_value(6, 2) == 3
    assert arith.cyclotomic_value(12, 2) == 13
    with pytest.raises(DomainError):
        arith.cyclotomic_value(0, 5)
    with pytest.raises(DomainError):
        arith.cyclotomic_value(3, 1)
    for n, q in ((0, 5), (0, 4), (-1, 4), (3, 1)):
        with pytest.raises(DomainError, match="cyclotomic_value needs"):
            arith.cyclotomic_factors(n, q)


def test_cyclotomic_value_matches_sympy_polynomial() -> None:
    """The integer recursion against sympy's cyclotomic polynomials, used
    here only as a reference, for n <= 60 at every q <= 50 and at q = 4096."""
    x = sympy.Symbol("x")
    for n in range(1, 61):
        poly = sympy.Poly(cyclotomic_poly(n, x), x)
        for q in list(range(2, 51)) + [4096]:
            assert arith.cyclotomic_value(n, q) == int(poly.eval(q)), (n, q)


def test_cyclotomic_product_identity() -> None:
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 24)
        q = rng.randint(2, 9)
        prod = 1
        for d in arith.divisors(n):
            prod *= arith.cyclotomic_value(d, q)
        assert prod == q**n - 1


def test_is_prime_and_prime_divisors() -> None:
    assert arith.is_prime(2)
    assert arith.is_prime(257)
    assert not arith.is_prime(1)
    assert not arith.is_prime(91)
    assert arith.factorize(84).primes == (2, 3, 7)


def _agrees_with_sympy(values) -> None:
    """factorize, is_prime, divisors and mult_order against sympy's
    factorint, isprime, divisors and n_order at every value given."""
    for a in values:
        assert arith.factorize(a).factors == sympy.factorint(a), a
        assert arith.is_prime(a) == sympy.isprime(a), a
        assert arith.divisors(a) == sympy.divisors(a), a
        if sympy.isprime(a):
            for q in (2, 3, 10, 4096, a + 1, a - 1, 2 * a + 5):
                if q % a:
                    assert arith.mult_order(q, a) == n_order(q, a), (q, a)


def test_small_values_agree_with_sympy() -> None:
    _agrees_with_sympy(range(1, 20001))


def test_values_straddling_the_trial_division_limit_agree_with_sympy() -> None:
    _agrees_with_sympy(range(2**20 - 1500, 2**20 + 1500))


def test_prime_power_cyclotomic_factors_merge_prime_base_pieces() -> None:
    """For q = p^k with k > 1 the table merges the factored Phi_m(p); that
    must equal Phi_n(q) factored whole.  A prime q is factored whole by the
    table itself, so it is left out; q = 6 and 10 are not prime powers and
    must not be split."""
    powers = [
        q for q in range(4, 257)
        if len(f := arith.factorize(q).factors) == 1 and q not in f
    ]
    assert len(powers) == 16
    for q in powers + [6, 10]:
        for n in range(1, 25):
            whole = arith.factorize(arith.cyclotomic_value(n, q))
            assert arith.cyclotomic_factors(n, q) == tuple(
                sorted(whole.factors.items())
            ), (n, q)
