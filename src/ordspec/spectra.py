"""Element-order spectra of classical groups as divisor-generator sets.

The spectrum of a finite group is the set of its element orders, which is
closed under taking divisors.  For the symplectic and orthogonal families
handled here the spectrum has a closed form: a short list of numbers whose
divisors are exactly the element orders.  This module materializes those
lists, reduced to the divisor-maximal antichain, and provides the set
operations (membership, inclusion, equality) on the represented sets.

Closed forms are available for:

* S_2n(q) = PSp_2n(q) and O_2n+1(q), full spectrum, any parity of q;
* O_8^+(q) full spectrum; O_8^-(q) full spectrum for even q;
* GO_8^-(q) for even q (the full orthogonal group, not simple);
* O_2n^+/-(q) for n >= 4, the p'-part of the spectrum only (orders coprime
  to the defining characteristic p).

Everything else raises UnsupportedError.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import arith
from .errors import DomainError, UnsupportedError, UsageError

SP = "Sp"
BN = "Bn"
DPLUS = "Dplus"
DMINUS = "Dminus"
O8PLUS = "O8plus"
O8MINUS = "O8minus"
GO8MINUS = "GO8minus"

FAMILIES = (SP, BN, DPLUS, DMINUS, O8PLUS, O8MINUS, GO8MINUS)

FULL = "full"

# Generator lists grow with the number of partitions of n; beyond this rank
# nothing in the verification grids needs them.
MAX_RANK = 12


@dataclass(frozen=True)
class GroupId:
    """A group from one of the supported families over GF(q), q = p^m.

    `n` is the Lie rank parameter: the group acts on a space of dimension
    2n (Sp, Dplus, Dminus and the dimension-8 families with n = 4) or
    2n + 1 (Bn).
    """

    family: str
    n: int
    p: int
    m: int

    @property
    def q(self) -> int:
        return self.p**self.m

    def name(self) -> str:
        q = self.q
        if self.family == SP:
            return f"S{2 * self.n}({q})"
        if self.family == BN:
            return f"O{2 * self.n + 1}({q})"
        if self.family == DPLUS:
            return f"O{2 * self.n}+({q})"
        if self.family == DMINUS:
            return f"O{2 * self.n}-({q})"
        if self.family == O8PLUS:
            return f"O8+({q})"
        if self.family == O8MINUS:
            return f"O8-({q})"
        return f"GO8-({q})"


def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^m with p prime, else DomainError."""
    if q < 2:
        raise DomainError(f"field size must be at least 2, got {q}")
    fact = arith.factorize(q)
    if len(fact.factors) != 1:
        raise DomainError(f"field size {q} is not a prime power")
    ((p, m),) = fact.factors.items()
    return p, m


def group_id(family: str, n: int, q: int) -> GroupId:
    """Validated constructor.  Normalizes O_2n+1(q) with even q to S_2n(q),
    the two being isomorphic."""
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}, expected one of {FAMILIES}")
    p, m = split_prime_power(q)
    if family == BN and p == 2:
        family = SP
    if family == SP and n < 2:
        raise DomainError(f"Sp needs n >= 2, got n={n}")
    if family == BN and n < 3:
        raise DomainError(f"O_2n+1 needs n >= 3 (use Sp for n = 2), got n={n}")
    if family in (DPLUS, DMINUS) and n < 4:
        raise DomainError(f"{family} needs n >= 4, got n={n}")
    if family in (O8PLUS, O8MINUS, GO8MINUS) and n != 4:
        raise DomainError(f"{family} is 8-dimensional, so n must be 4, got n={n}")
    if family in (O8MINUS, GO8MINUS) and p != 2:
        raise DomainError(f"{family} spectrum is available for even q only, got q={q}")
    return GroupId(family, n, p, m)


@dataclass(frozen=True)
class SpectrumGens:
    """A divisor-closed set of positive integers, represented by the
    antichain of its maximal elements.

    `part` is "full" for a whole spectrum or "p'" (e.g. "3'") when only the
    orders coprime to p are represented.
    """

    label: str
    part: str
    gens: tuple[int, ...]
    group: GroupId | None = None

    def __post_init__(self) -> None:
        gens = self.gens
        if not gens:
            raise DomainError("empty generator list")
        if list(gens) != sorted(set(gens)):
            raise DomainError("generators must be strictly increasing")
        if gens[0] < 1:
            raise DomainError("generators must be positive")
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if b % a == 0:
                    raise DomainError(f"not an antichain: {a} divides {b}")
        if self.part != FULL:
            p = self.char_excluded()
            if any(g % p == 0 for g in gens):
                raise DomainError(f"{self.part} spectrum contains a multiple of {p}")

    def char_excluded(self) -> int:
        """The prime excluded by a p'-part label."""
        if self.part == FULL:
            raise DomainError("full spectrum excludes no prime")
        return int(self.part[:-1])


def reduce_gens(
    values,
    label: str = "",
    part: str = FULL,
    group: GroupId | None = None,
) -> SpectrumGens:
    """Drop duplicates and every value dividing another value."""
    vals = sorted(set(values))
    if not vals:
        raise DomainError("cannot reduce an empty collection")
    if vals[0] < 1:
        raise DomainError(f"values must be positive, got {vals[0]}")
    kept = [
        v
        for i, v in enumerate(vals)
        if not any(w % v == 0 for w in vals[i + 1 :])
    ]
    return SpectrumGens(label, part, tuple(kept), group)


def contains(spec: SpectrumGens, a: int) -> bool:
    """Whether a lies in the represented divisor-closed set."""
    if a < 1:
        raise DomainError(f"membership of non-positive value {a}")
    return any(g % a == 0 for g in spec.gens)


def is_sub_spectrum(a: SpectrumGens, b: SpectrumGens) -> tuple[bool, int | None]:
    """Whether every element of a's set lies in b's set.

    Returns (holds, witness); the witness is a generator of `a` outside `b`.
    """
    for g in a.gens:
        if not contains(b, g):
            return False, g
    return True, None


def equals(a: SpectrumGens, b: SpectrumGens) -> bool:
    """Set equality of the represented sets (equivalently, equal antichains)."""
    return a.gens == b.gens


def divisor_closure(spec: SpectrumGens) -> list[int]:
    """Every element of the represented set, ascending.  Intended for small
    generator lists (oracle-scale comparisons)."""
    out: set[int] = set()
    for g in spec.gens:
        out.update(arith.divisors(g))
    return sorted(out)


def serialize(spec: SpectrumGens) -> str:
    """Canonical JSON form; equal spectra serialize byte-identically."""
    obj = {
        "label": spec.label,
        "part": spec.part,
        "gens": [str(g) for g in spec.gens],
    }
    if spec.group is not None:
        obj["group"] = {
            "family": spec.group.family,
            "n": spec.group.n,
            "p": spec.group.p,
            "m": spec.group.m,
        }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_spectrum(text: str) -> SpectrumGens:
    try:
        obj = json.loads(text)
        label = obj["label"]
        part = obj["part"]
        gens = tuple(int(g) for g in obj["gens"])
        group = None
        if "group" in obj:
            g = obj["group"]
            group = GroupId(g["family"], int(g["n"]), int(g["p"]), int(g["m"]))
        return SpectrumGens(label, part, gens, group)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed spectrum serialization: {exc}") from exc


@lru_cache(maxsize=None)
def _partitions(total: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of total into positive parts, each descending."""

    def rec(rest: int, max_part: int) -> list[tuple[int, ...]]:
        if rest == 0:
            return [()]
        out = []
        for first in range(min(rest, max_part), 0, -1):
            out.extend((first, *tail) for tail in rec(rest - first, first))
        return out

    return tuple(rec(total, total))


def _signed_lcms(
    q: int, total: int, min_parts: int = 1, sign_product: int | None = None
) -> set[int]:
    """All values lcm(q^n1 - d1, ..., q^ns - ds) over partitions
    n1 + ... + ns = total with s >= min_parts and signs di in {+1, -1}
    chosen independently.

    When sign_product is +1 or -1, only sign choices with
    d1 * d2 * ... * ds == sign_product contribute.
    """
    out: set[int] = set()
    for part in _partitions(total):
        if len(part) < min_parts:
            continue
        classes = sorted(Counter(part).items())
        # Per class of equal parts, only the presence of each sign affects
        # the lcm, and only the minus-count parity affects the sign product.
        choices_per_class = []
        for size, count in classes:
            opts = []
            for minus in range(count + 1):
                vals = []
                if minus < count:
                    vals.append(q**size - 1)
                if minus > 0:
                    vals.append(q**size + 1)
                opts.append((math.lcm(*vals), -1 if minus % 2 else 1))
            choices_per_class.append(opts)
        for combo in itertools.product(*choices_per_class):
            if sign_product is not None:
                sign = 1
                for _, s in combo:
                    sign *= s
                if sign != sign_product:
                    continue
            out.add(math.lcm(*(v for v, _ in combo)))
    return out


def _sp_odd_gens(n: int, q: int, p: int, d: int) -> set[int]:
    """Spectrum generators for S_2n(q) (d = 1) and O_2n+1(q) (d = 2), q odd."""
    gens = {(q**n - 1) // 2, (q**n + 1) // 2}
    gens |= _signed_lcms(q, n, min_parts=2)
    k = 1
    while p ** (k - 1) + 1 <= 2 * n:
        rest = 2 * n - (p ** (k - 1) + 1)
        if rest == 0:
            gens.add(p**k)
        elif rest % 2 == 0:
            n1 = rest // 2
            gens.add(p**k * (q**n1 - 1) // d)
            gens.add(p**k * (q**n1 + 1) // d)
            for v in _signed_lcms(q, n1, min_parts=2):
                gens.add(p**k * v)
        k += 1
    return gens


def _sp_even_gens(n: int, q: int) -> set[int]:
    """Spectrum generators for S_2n(q) = Sp_2n(q), q even."""
    gens = set(_signed_lcms(q, n))
    gens |= {2 * v for v in _signed_lcms(q, n - 1)}
    k = 2
    while 2 ** (k - 2) + 1 <= n:
        rest = n - (2 ** (k - 2) + 1)
        if rest == 0:
            gens.add(2**k)
        else:
            gens |= {2**k * v for v in _signed_lcms(q, rest)}
        k += 1
    return gens


def _o8plus_gens(q: int, p: int) -> set[int]:
    d2 = math.gcd(2, q - 1)
    gens = {
        (q**4 - 1) // d2**2,
        (q**3 - 1) // d2,
        (q**3 + 1) // d2,
        q**2 - 1,
        p * (q**2 + 1) // d2,
        p * (q**2 - 1) // d2,
    }
    if p in (2, 3):
        gens.add(p**2 * (q + 1) // d2)
        gens.add(p**2 * (q - 1) // d2)
    if p == 5:
        gens.add(25)
    if p == 2:
        gens.add(8)
    return gens


def _o8minus_gens(q: int) -> set[int]:
    return {
        q**4 - 1,
        q**4 + 1,
        (q**2 + q + 1) * (q**2 - 1),
        (q**2 - q + 1) * (q**2 - 1),
        2 * (q**2 + 1) * (q + 1),
        2 * (q**2 + 1) * (q - 1),
        4 * (q**2 - 1),
        8,
    }


def _go8minus_gens(q: int) -> set[int]:
    return _o8minus_gens(q) | {
        2 * (q**3 + 1),
        2 * (q**3 - 1),
        4 * (q**2 + 1),
        8 * (q + 1),
        8 * (q - 1),
    }


def _semi_gens(n: int, q: int, eps: int) -> set[int]:
    """p'-spectrum generators for O_2n^eps(q), n >= 4 (eps = +1 or -1)."""
    a = q**n - eps
    d4 = math.gcd(4, a)
    gens = {a // d4}
    for n1 in range(1, n):
        n2 = n - n1
        for delta in (1, -1):
            x = q**n1 - delta
            y = q**n2 - eps * delta
            d = 2 if d4 == 4 and arith.r_part(x, 2) == arith.r_part(y, 2) else 1
            gens.add(math.lcm(x, y) // d)
    gens |= _signed_lcms(q, n, min_parts=3, sign_product=eps)
    return gens


def _check_rank(group: GroupId) -> None:
    if group.n > MAX_RANK:
        raise UnsupportedError(
            f"rank n={group.n} exceeds the supported bound {MAX_RANK}"
        )


def spectrum(group: GroupId) -> SpectrumGens:
    """The full spectrum as a reduced generator list."""
    _check_rank(group)
    n, q, p = group.n, group.q, group.p
    if group.family == SP:
        if (n, q) == (2, 2):
            raise DomainError(
                "S4(2) excluded: not simple, closed form inapplicable"
            )
        raw = _sp_odd_gens(n, q, p, 1) if p != 2 else _sp_even_gens(n, q)
    elif group.family == BN:
        raw = _sp_odd_gens(n, q, p, 2)
    elif group.family == O8PLUS:
        raw = _o8plus_gens(q, p)
    elif group.family == O8MINUS:
        raw = _o8minus_gens(q)
    elif group.family == GO8MINUS:
        raw = _go8minus_gens(q)
    elif group.family == DPLUS and n == 4:
        raw = _o8plus_gens(q, p)
    elif group.family == DMINUS and n == 4 and p == 2:
        raw = _o8minus_gens(q)
    else:
        raise UnsupportedError(
            f"full spectrum of {group.name()} has no closed form here; "
            "only the p'-part is available for this family"
        )
    return reduce_gens(raw, label=group.name(), group=group)


def spectrum_p_prime(group: GroupId) -> SpectrumGens:
    """The p'-part of the spectrum (orders coprime to the characteristic)."""
    _check_rank(group)
    n, q, p = group.n, group.q, group.p
    part = f"{p}'"
    if group.family == DPLUS:
        raw = _semi_gens(n, q, 1)
    elif group.family == DMINUS:
        raw = _semi_gens(n, q, -1)
    else:
        raw = {arith.coprime_part(g, p) for g in spectrum(group).gens}
    return reduce_gens(raw, label=group.name(), part=part, group=group)
