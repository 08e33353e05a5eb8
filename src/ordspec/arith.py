"""Exact integer arithmetic: factorizations, prime parts, multiplicative orders.

Thin, validated wrappers around sympy's number theory, cyclotomic values
computed in integers, and the one memoised table of their factorizations.
Everything works on arbitrary-precision ints; nothing here is probabilistic
in a way that can return a wrong answer silently (sympy's isprime is strong
BPSW + Miller-Rabin, with no known pseudoprime, and is proven deterministic
well past every value this package feeds it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from sympy import divisors as _sympy_divisors
from sympy import factorint, isprime
from sympy.ntheory.residue_ntheory import n_order

from .errors import DomainError


@dataclass(frozen=True)
class Factorization:
    """A positive integer together with its full prime factorization.

    `factors` maps prime -> exponent and multiplies out to `value`; both are
    checked at construction so a Factorization in hand is always consistent.
    """

    value: int
    factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.value < 1:
            raise DomainError(f"factorization of non-positive value {self.value}")
        prod = 1
        for p, e in self.factors.items():
            if e < 1 or not isprime(p):
                raise DomainError(f"bad factor entry {p}^{e}")
            prod *= p**e
        if prod != self.value:
            raise DomainError(
                f"factors multiply to {prod}, not {self.value}"
            )

    @property
    def primes(self) -> tuple[int, ...]:
        """The distinct prime divisors, ascending."""
        return tuple(sorted(self.factors))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"{p}^{e}" if e > 1 else f"{p}"
            for p, e in sorted(self.factors.items())
        )


def factorize(a: int) -> Factorization:
    """Full prime factorization of a positive integer."""
    if a < 1:
        raise DomainError(f"cannot factorize {a}")
    return Factorization(a, {int(p): int(e) for p, e in factorint(a).items()})


def is_prime(n: int) -> bool:
    return bool(isprime(n))


def divisors(a: int) -> list[int]:
    """All positive divisors of a, ascending."""
    if a < 1:
        raise DomainError(f"divisors of non-positive value {a}")
    return [int(d) for d in _sympy_divisors(a)]


def r_part(a: int, r: int) -> int:
    """The r-part of a: the largest power of the prime r dividing a."""
    if a < 1:
        raise DomainError(f"r_part of non-positive value {a}")
    if not isprime(r):
        raise DomainError(f"r_part needs a prime, got r={r}")
    part = 1
    while a % r == 0:
        a //= r
        part *= r
    return part


def coprime_part(a: int, r: int) -> int:
    """The r'-part of a: a with every factor of the prime r removed."""
    return a // r_part(a, r)


def mult_order(q: int, r: int) -> int:
    """Multiplicative order of q modulo the prime r (requires r coprime to q)."""
    if not isprime(r):
        raise DomainError(f"mult_order needs a prime modulus, got r={r}")
    if q % r == 0:
        raise DomainError(f"{q} is divisible by {r}, order undefined")
    return int(n_order(q, r))


# Bounded so that a long-running caller sweeping many (n, q) does not grow
# without limit; the closed-form paths ask for a few hundred values.
@lru_cache(maxsize=4096)
def cyclotomic_value(n: int, q: int) -> int:
    """The n-th cyclotomic polynomial evaluated at the integer q >= 2:
    q^n - 1 divided by Phi_d(q) for every proper divisor d of n."""
    if n < 1 or q < 2:
        raise DomainError(f"cyclotomic_value needs n >= 1, q >= 2, got ({n}, {q})")
    value = q**n - 1
    for d in divisors(n)[:-1]:
        value, rem = divmod(value, cyclotomic_value(d, q))
        if rem:
            raise AssertionError(f"internal: Phi_{d}({q}) does not divide {q}^{n} - 1")
    return value


# Bounded like cyclotomic_value; a tuple, so no caller can change a cached
# entry (a Factorization holds a mutable dict).
@lru_cache(maxsize=4096)
def cyclotomic_factors(n: int, q: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of Phi_n(q), primes ascending."""
    return tuple(sorted(factorize(cyclotomic_value(n, q)).factors.items()))
