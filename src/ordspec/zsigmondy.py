"""Primitive prime divisors of q^n - 1.

A prime r is a primitive prime divisor for (q, n) when the multiplicative
order of q modulo r is exactly n; equivalently r divides q^n - 1 but no
q^i - 1 with 0 < i < n.  These primes are exactly the prime divisors of the
n-th cyclotomic value Phi_n(q) after removing primes dividing n, so existence
can be decided without factoring anything: the stripped value exceeds 1.
The only gap in existence for n >= 3, q >= 2 is (q, n) = (2, 6), where
Phi_6(2) = 3 divides n.  Listing the primes reads arith.cyclotomic_factors.
"""

from __future__ import annotations

import math

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
    while (common := math.gcd(value, n)) > 1:
        value //= common
    return value


def has_primitive_prime_divisor(q: int, n: int) -> bool:
    """Whether any prime has multiplicative order n modulo q (no factoring)."""
    return primitive_part(q, n) > 1


def primitive_prime_divisors(q: int, n: int) -> tuple[int, ...]:
    """All primes of multiplicative order n modulo q, ascending.

    The primes of Phi_n(q) that do not divide n.  Factors Phi_n(q), once,
    so keep (q, n) at a scale where it (roughly q^phi(n)) is tractable.
    """
    _check_args(q, n)
    primes = tuple(r for r, _ in arith.cyclotomic_factors(n, q) if n % r)
    # order exactly n, read from the primes of n alone, with nothing
    # factored: q^n = 1 mod r and q^(n/s) != 1 for each prime s of n
    primes_of_n = [s for s in range(2, n + 1) if n % s == 0 and arith.is_prime(s)]
    for r in primes:
        if pow(q, n, r) != 1 or any(pow(q, n // s, r) == 1 for s in primes_of_n):
            raise AssertionError(
                f"internal: {r} divides the primitive part of ({q}, {n}) "
                f"but does not have order {n}"
            )
    return primes
