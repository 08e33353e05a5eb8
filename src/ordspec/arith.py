"""Exact integer arithmetic: factorizations, prime parts, multiplicative orders.

Below 2^20, factoring, primality and divisors are exact trial division.
Above it, primality is decided here without sympy: Miller-Rabin to the 13
prime bases 2..41 below 3317044064679887385961981, where it is exact
(Sorenson and Webster, Math. Comp. 86, 2017), and strong BPSW above it
(Miller-Rabin to base 2, then the strong Lucas test with Selfridge's
parameters; Baillie and Wagstaff, Math. Comp. 35, 1980), which has no known
pseudoprime and is sympy.isprime's rule there.  Factoring above 2^20 calls
sympy's factorint, imported inside the call, so starting the package never
loads sympy.  Cyclotomic values are computed in integers, and one memoised
table holds their factorizations; Phi_n(p^k) is merged from the smaller
Phi_m(p), which every power of p shares.

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
# go to sympy's factorint, or for primality to Miller-Rabin and BPSW.
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


# The 13 primes 2..41: Miller-Rabin to all of them as bases is exact below
# _MR_BOUND, the least strong pseudoprime to every one (Sorenson and Webster,
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters for odd n > 41 with
    no prime factor up to 41: D the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4, and n + 1 = d 2^s; n passes when
    U_d = 0 or V_(d 2^r) = 0 mod n for some r < s."""
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k, Q^k mod n from k = 1 along the bits of d: 2k, then k + 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            # U_(k+1) = (U + V)/2 and V_(k+1) = (D U + V)/2, halved mod odd n
            U, V, Qk = U + V, D * U + V, Qk * Q % n
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# Bounded like cyclotomic_value; Factorization re-checks the same few hundred
# primes many times over.
@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """Exact below 2^20 by trial division and below _MR_BOUND by
    Miller-Rabin to the bases _MR_BASES; above that strong BPSW
    (Miller-Rabin to base 2, then the strong Lucas test), which has no
    known pseudoprime and is sympy.isprime's rule there."""
    if n < _TRIAL_LIMIT:
        return _factor(n) == {n: 1}
    if any(n % a == 0 for a in _MR_BASES):
        return False
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


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
