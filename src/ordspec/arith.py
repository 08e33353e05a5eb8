"""Exact integer arithmetic: factorizations, prime parts, multiplicative orders.

Below 2^20, factoring, primality and divisors are exact trial division.
Above it they call sympy's factorint and isprime, imported inside the call,
so starting the package never loads sympy.  Nothing here is probabilistic in
a way that can return a wrong answer silently: isprime is strong BPSW +
Miller-Rabin, with no known pseudoprime, and is proven deterministic well
past every value this package feeds it.  Cyclotomic values are computed in
integers, and one memoised table holds their factorizations; Phi_n(p^k) is
merged from the smaller Phi_m(p), which every power of p shares.

Those Phi_m(p) >= 2^20 are read from phi_table.txt beside this module, made
by tools/make_phi_table.py: every one reached from Phi_d(p^k) with
p^k <= 4096, p <= 13 and d dividing 2i for some i <= spectra.MAX_RANK.  So
sympy factors only values outside that table.  A row is checked on its first
use by its product and the primality of its primes, which by unique
factorization makes it the factorization; a row that fails, or does not
parse, raises DomainError instead of falling back to sympy.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError

# Below this, trial division needs divisors up to 2^10 only; larger values
# go to sympy.
_TRIAL_LIMIT = 1 << 20


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
            if e < 1 or not is_prime(p):
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


def _factor(a: int) -> dict[int, int]:
    """prime -> exponent of a >= 1, primes ascending."""
    if a >= _TRIAL_LIMIT:
        from sympy import factorint

        return {int(p): int(e) for p, e in sorted(factorint(a).items())}
    factors: dict[int, int] = {}
    d = 2
    while d * d <= a:
        while a % d == 0:
            factors[d] = factors.get(d, 0) + 1
            a //= d
        d += 1 if d == 2 else 2
    if a > 1:
        factors[a] = factors.get(a, 0) + 1
    return factors


def factorize(a: int) -> Factorization:
    """Full prime factorization of a positive integer."""
    if a < 1:
        raise DomainError(f"cannot factorize {a}")
    return Factorization(a, _factor(a))


# Bounded like cyclotomic_value; Factorization re-checks the same few hundred
# primes many times over.
@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    if n >= _TRIAL_LIMIT:
        from sympy import isprime

        return bool(isprime(n))
    return _factor(n) == {n: 1}


def divisors(a: int) -> list[int]:
    """All positive divisors of a, ascending."""
    if a < 1:
        raise DomainError(f"divisors of non-positive value {a}")
    divs = [1]
    for p, e in _factor(a).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def r_part(a: int, r: int) -> int:
    """The r-part of a: the largest power of the prime r dividing a."""
    if a < 1:
        raise DomainError(f"r_part of non-positive value {a}")
    if not is_prime(r):
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
    """Multiplicative order of q modulo the prime r (requires r coprime to q):
    r - 1 with each prime s removed while q^(order/s) is still 1 mod r."""
    if not is_prime(r):
        raise DomainError(f"mult_order needs a prime modulus, got r={r}")
    if q % r == 0:
        raise DomainError(f"{q} is divisible by {r}, order undefined")
    order = r - 1
    for s in _factor(order):
        while order % s == 0 and pow(q, order // s, r) == 1:
            order //= s
    return order


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


_PHI_TABLE = os.path.join(os.path.dirname(__file__), "phi_table.txt")


@lru_cache(maxsize=1)
def _phi_table() -> dict[tuple[int, int], str]:
    """(p, m) -> the factor tokens of Phi_m(p) in phi_table.txt, unchecked."""
    rows = {}
    with open(_PHI_TABLE, encoding="ascii") as fh:
        for line in fh:
            try:
                p, m, tokens = line.split(maxsplit=2)
                rows[int(p), int(m)] = tokens
            except ValueError:
                raise DomainError(
                    f"phi_table.txt: cannot read the row {line!r}"
                ) from None
    return rows


def _table_factorization(p: int, m: int, value: int) -> Factorization | None:
    """Phi_m(p) = value from its table row, checked; None without a row."""
    tokens = _phi_table().get((p, m))
    if tokens is None:
        return None
    try:
        factors = {}
        for token in tokens.split():
            r, caret, e = token.partition("^")
            factors[int(r)] = int(e) if caret else 1
        return Factorization(value, factors)
    except (ValueError, DomainError) as exc:
        raise DomainError(
            f"phi_table.txt row (p, m) = ({p}, {m}) fails its check: {exc}"
        ) from None


# Bounded like cyclotomic_value; a tuple, so no caller can change a cached
# entry (a Factorization holds a mutable dict).
@lru_cache(maxsize=4096)
def cyclotomic_factors(n: int, q: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of Phi_n(q), primes ascending.

    For q = p^k with k > 1, Phi_n(x^k) is the product of the Phi_m(x) over
    the m dividing n*k with m / gcd(m, k) = n, so Phi_n(q) is merged from
    those Phi_m(p) instead of being factored whole.  A prime q reads
    Phi_n(q) from phi_table.txt when it has a row there."""
    base = _factor(q)
    # q prime, or not a prime power; cyclotomic_value also rejects n < 1
    if len(base) != 1 or q in base or n < 1:
        value = cyclotomic_value(n, q)
        fact = _table_factorization(q, n, value) if q in base else None
        return tuple(sorted((fact or factorize(value)).factors.items()))
    ((p, k),) = base.items()
    merged: Counter = Counter()
    for m in divisors(n * k):
        if m // math.gcd(m, k) == n:
            for r, e in cyclotomic_factors(m, p):
                merged[r] += e
    return tuple(sorted(merged.items()))
