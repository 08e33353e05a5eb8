"""Unit tests for primitive prime divisors of q^n - 1."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from ordspec import arith, zsigmondy
from ordspec.errors import DomainError


def _primitive_primes_by_definition(q: int, n: int) -> tuple[int, ...]:
    """Trial-division reference: primes dividing q^n - 1 and no earlier
    q^i - 1."""
    out = []
    for r in arith.factorize(q**n - 1).primes:
        if all((q**i - 1) % r != 0 for i in range(1, n)):
            out.append(r)
    return tuple(out)


def test_known_small_sets() -> None:
    assert zsigmondy.primitive_prime_divisors(2, 2) == (3,)
    assert zsigmondy.primitive_prime_divisors(2, 3) == (7,)
    assert zsigmondy.primitive_prime_divisors(2, 4) == (5,)
    assert zsigmondy.primitive_prime_divisors(2, 5) == (31,)
    assert zsigmondy.primitive_prime_divisors(2, 6) == ()
    assert zsigmondy.primitive_prime_divisors(2, 10) == (11,)
    assert zsigmondy.primitive_prime_divisors(2, 11) == (23, 89)
    assert zsigmondy.primitive_prime_divisors(3, 4) == (5,)
    assert zsigmondy.primitive_prime_divisors(3, 5) == (11,)
    assert zsigmondy.primitive_prime_divisors(3, 6) == (7,)
    assert zsigmondy.primitive_prime_divisors(4, 3) == (7,)
    assert zsigmondy.primitive_prime_divisors(5, 4) == (13,)


def test_matches_definition_on_grid() -> None:
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 17):
            got = zsigmondy.primitive_prime_divisors(q, n)
            want = _primitive_primes_by_definition(q, n)
            assert got == want, (q, n, got, want)


def test_every_reported_prime_has_order_n() -> None:
    rng = random.Random(29)
    for _ in range(60):
        q = rng.randint(2, 30)
        n = rng.randint(1, 14)
        for r in zsigmondy.primitive_prime_divisors(q, n):
            assert arith.mult_order(q, r) == n


def test_existence_agrees_with_enumeration() -> None:
    for q in (2, 3, 4, 5, 7):
        for n in range(1, 14):
            assert zsigmondy.has_primitive_prime_divisor(q, n) == bool(
                zsigmondy.primitive_prime_divisors(q, n)
            )


def test_primitive_part_strips_exactly_the_order_failures() -> None:
    # Phi_6(2) = 3 but 3 has order 2, so the part collapses to 1.
    assert zsigmondy.primitive_part(2, 6) == 1
    # Phi_4(3) = 10 = 2 * 5 and only 5 has order 4.
    assert zsigmondy.primitive_part(3, 4) == 5
    assert zsigmondy.primitive_part(2, 11) == 23 * 89


def test_gcd_certificate_without_factoring() -> None:
    # A 41-digit value with no small prime factors (all are = 1 mod 49):
    # beyond casual factoring, yet its divisibility properties are instant.
    part = zsigmondy.primitive_part(9, 49)
    assert part > 10**40
    assert (9**49 - 1) % part == 0
    assert math.gcd(part, 9**7 - 1) == 1


def test_argument_validation() -> None:
    with pytest.raises(DomainError):
        zsigmondy.primitive_prime_divisors(1, 4)
    with pytest.raises(DomainError):
        zsigmondy.primitive_prime_divisors(5, 0)
    with pytest.raises(DomainError):
        zsigmondy.primitive_part(0, 3)


@pytest.mark.parametrize("wrong", [3, 7])
def test_a_prime_of_the_wrong_order_is_refused(monkeypatch, wrong) -> None:
    """The order check needs only the primes of n: 2^4 = 1 modulo 3, but
    so is 2^2, and 7 does not divide 2^4 - 1."""
    monkeypatch.setattr(arith, "cyclotomic_factors", lambda n, q: ((wrong, 1),))
    with pytest.raises(AssertionError, match=f"{wrong} divides .* order 4"):
        zsigmondy.primitive_prime_divisors(2, 4)


def test_primitive_primes_without_mult_order(monkeypatch) -> None:
    """Without arith.mult_order the lists are the ones the mult_order
    check gave, over every 2 <= q < 60 and n < 30 with Phi_n(q) < 2^64
    (1,309 of the 1,682 pairs; the rest only take longer to factor)."""

    def refuse(*args):
        raise AssertionError("mult_order called")

    monkeypatch.setattr(arith, "mult_order", refuse)
    rows = [
        f"{q} {n} {' '.join(map(str, zsigmondy.primitive_prime_divisors(q, n)))}"
        for q in range(2, 60)
        for n in range(1, 30)
        if arith.cyclotomic_value(n, q).bit_length() <= 64
    ]
    assert len(rows) == 1309
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == (
        "9af150160deb7c3939aca25c63385f1b8e7e61daef1f9cc413b771122bd8a4c5"
    )
