"""Primitive prime divisors of q^n - 1.

A prime r is a primitive prime divisor for (q, n) when the multiplicative
order of q modulo r is exactly n; equivalently r divides q^n - 1 but no
q^i - 1 with 0 < i < n.  These primes are exactly the prime divisors of the
n-th cyclotomic value Phi_n(q) after removing primes dividing n, so existence
can be decided without factoring anything: the stripped value exceeds 1.
The only gap in existence for n >= 3, q >= 2 is (q, n) = (2, 6), where
Phi_6(2) = 3 divides n.
"""

from __future__ import annotations

from . import arith
from .errors import DomainError


def _check_args(q: int, n: int) -> None:
    if q < 2 or n < 1:
        raise DomainError(f"need q >= 2 and n >= 1, got (q, n) = ({q}, {n})")


def primitive_part(q: int, n: int) -> int:
    """Phi_n(q) with every prime factor of n divided out.

    Every prime divisor of the result has multiplicative order n modulo q,
    and every prime with that order divides the result.
    """
    _check_args(q, n)
    value = arith.cyclotomic_value(n, q)
    for r in arith.prime_divisors(n) if n > 1 else ():
        while value % r == 0:
            value //= r
    return value


def has_primitive_prime_divisor(q: int, n: int) -> bool:
    """Whether any prime has multiplicative order n modulo q (no factoring)."""
    return primitive_part(q, n) > 1


def primitive_prime_divisors(q: int, n: int) -> tuple[int, ...]:
    """All primes of multiplicative order n modulo q, ascending.

    Factors the primitive part, so keep (q, n) at a scale where that value
    (roughly q^phi(n)) is tractable.
    """
    value = primitive_part(q, n)
    if value == 1:
        return ()
    primes = arith.factorize(value).primes
    for r in primes:
        if arith.mult_order(q, r) != n:
            raise AssertionError(
                f"internal: {r} divides the primitive part of ({q}, {n}) "
                f"but has order {arith.mult_order(q, r)}"
            )
    return primes


def zsigmondy_prime(q: int, n: int) -> int | None:
    """The smallest primitive prime divisor, or None when there is none."""
    primes = primitive_prime_divisors(q, n)
    return primes[0] if primes else None

