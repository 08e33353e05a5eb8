"""Element-order spectra of classical groups as divisor-generator sets.

The spectrum of a finite group is the set of its element orders, which is
closed under taking divisors.  For the symplectic and orthogonal families
handled here the spectrum has a closed form: a short list of numbers whose
divisors are exactly the element orders.  This module materializes those
lists: spectrum_values gives the unreduced values of a part, spectrum and
spectrum_p_prime reduce them to the divisor-maximal antichain, and the set
operations (membership, inclusion, equality) act on the represented sets.

Closed forms are available for:

* S_2n(q) = PSp_2n(q) and O_2n+1(q), full spectrum, any parity of q;
* O_8^+(q) full spectrum; O_8^-(q) full spectrum for even q;
* GO_8^-(q) for even q (the full orthogonal group, not simple);
* O_2n^+/-(q) for n >= 4, the p'-part of the spectrum only (orders coprime
  to the defining characteristic p).

Everything else raises UnsupportedError.

S_2n(q), for q of either parity, and O_2n+1(q) come from one construction
(Buturlakin, Spectra of finite symplectic and orthogonal groups, 2011):
the orders of the maximal tori, lcms of q^n1 +/- 1, ..., q^ns +/- 1 over
signed partitions of n, and p^k times the tori of rank n - u_k for every
k >= 1 with u_k = p^(k-1) // 2 + 1 <= n, the rank a unipotent element of
order p^k takes up.  For odd q the one-part tori q^n +/- 1 are halved, and
for O_2n+1(q) also the one-part tori beside p^k.  The O_8^+/-(q) and
GO_8^-(q) lists and the O_2n^+/-(q) p'-forms are written out on their own.
"""

from __future__ import annotations

import json
import math
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

# Each family with the name template of its groups, over "2n", "2n+1", "q".
_NAME_TEMPLATES = {
    SP: "S{2n}({q})",
    BN: "O{2n+1}({q})",
    DPLUS: "O{2n}+({q})",
    DMINUS: "O{2n}-({q})",
    O8PLUS: "O8+({q})",
    O8MINUS: "O8-({q})",
    GO8MINUS: "GO8-({q})",
}
FAMILIES = tuple(_NAME_TEMPLATES)

FULL = "full"
PPRIME = "p-prime"

# Generator lists grow with the number of partitions of n; beyond this rank
# nothing in the verification grids needs them.
MAX_RANK = 12


@dataclass(frozen=True)
class GroupId:
    """A group from one of the supported families over GF(q), q = p^m.

    `n` is the Lie rank parameter: the group acts on a space of dimension
    2n (Sp, Dplus, Dminus and the dimension-8 families with n = 4) or
    2n + 1 (Bn).  However it is made, a GroupId obeys the rules of group_id,
    and Bn with even q is rejected: group_id builds it as the isomorphic Sp.
    """

    family: str
    n: int
    p: int
    m: int

    @property
    def q(self) -> int:
        return self.p**self.m

    def __post_init__(self) -> None:
        family, n, p = self.family, self.n, self.p
        if family not in FAMILIES:
            raise DomainError(
                f"unknown family {family!r}, expected one of {FAMILIES}"
            )
        if not arith.is_prime(p) or self.m < 1:
            raise DomainError(f"need a prime p and m >= 1, got p={p}, m={self.m}")
        if family == SP and n < 2:
            raise DomainError(f"Sp needs n >= 2, got n={n}")
        if family == BN and n < 3:
            raise DomainError(f"O_2n+1 needs n >= 3 (use Sp for n = 2), got n={n}")
        if family in (DPLUS, DMINUS) and n < 4:
            raise DomainError(f"{family} needs n >= 4, got n={n}")
        if family in (O8PLUS, O8MINUS, GO8MINUS) and n != 4:
            raise DomainError(f"{family} is 8-dimensional, so n must be 4, got n={n}")
        if family in (O8MINUS, GO8MINUS) and p != 2:
            raise DomainError(
                f"{family} spectrum is available for even q only, got q={self.q}"
            )
        if family == BN and p == 2:
            raise DomainError(f"O_2n+1 with even q is normalised to Sp, got q={self.q}")

    def name(self) -> str:
        return group_name(self.family, self.n, self.q)


def group_name(family: str, n: int, q: int) -> str:
    """The family's name at rank n over GF(q), unnormalised: (Bn, 3, 2) is O7(2)."""
    return _NAME_TEMPLATES[family].format_map({"2n": 2 * n, "2n+1": 2 * n + 1, "q": q})


def _integer_root(a: int, m: int) -> int:
    """floor(a^(1/m)) for a >= 1 by Newton's method in integers, from
    2^ceil(bits/m) down, so no float rounds a q above 2^53."""
    x = 1 << -(-a.bit_length() // m)
    while (y := ((m - 1) * x + a // x ** (m - 1)) // m) < x:
        x = y
    return x


@lru_cache(maxsize=None)
def split_prime_power(q: int) -> tuple[int, int]:
    """q = p^m with p prime, else DomainError.  Nothing is factored: p is
    the exact integer m-th root of q that is_prime accepts, for m from
    floor(log2 q) down.  Memoised; an error is raised again on every call."""
    if q < 2:
        raise DomainError(f"field size must be at least 2, got {q}")
    for m in range(q.bit_length() - 1, 0, -1):
        p = _integer_root(q, m)
        if p ** m == q and arith.is_prime(p):
            return p, m
    raise DomainError(f"field size {q} is not a prime power")


def group_id(family: str, n: int, q: int) -> GroupId:
    """Splits q, normalises O_2n+1(q) with even q to the isomorphic S_2n(q)
    and builds the GroupId, whose constructor checks the rest."""
    p, m = split_prime_power(q)
    if family == BN and p == 2:
        family = SP
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
        p = part_prime(self.part)
        if p is not None and any(g % p == 0 for g in gens):
            raise DomainError(f"{self.part} spectrum contains a multiple of {p}")


def part_prime(part: str) -> int | None:
    """None for the part "full", p for the part p' of a prime p (e.g. "3'");
    any other part is a DomainError.  Spectra and prime graphs both obey it."""
    if part == FULL:
        return None
    digits = part[:-1] if isinstance(part, str) else ""
    p = int(digits) if digits.isascii() and digits.isdigit() else 0
    if part != f"{p}'" or not arith.is_prime(p):
        raise DomainError(f"part must be {FULL!r} or p' for a prime p, got {part!r}")
    return p


def _maximal(values) -> list[int]:
    """The values that divide no other value, descending.

    Values are taken largest first and tested against the kept ones only:
    a larger value that was dropped divides a kept one, so it never
    decides alone."""
    kept: list[int] = []
    for v in sorted(values, reverse=True):  # a repeat divides its first copy
        if not any(w % v == 0 for w in kept):
            kept.append(v)
    return kept


def reduce_gens(
    values,
    label: str = "",
    part: str = FULL,
    group: GroupId | None = None,
) -> SpectrumGens:
    """Drop duplicates and every value dividing another value, by _maximal."""
    vals = set(values)
    if not vals:
        raise DomainError("cannot reduce an empty collection")
    if min(vals) < 1:
        raise DomainError(f"values must be positive, got {min(vals)}")
    return SpectrumGens(label, part, tuple(reversed(_maximal(vals))), group)


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
    """Inverse of serialize; JSON that breaks an invariant raises UsageError."""
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
    except (DomainError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed spectrum serialization: {exc}") from exc


# Bounded like arith.cyclotomic_value; one q with rest <= MAX_RANK needs
# fewer than 100 entries.
@lru_cache(maxsize=4096)
def _lcm_states(q: int, rest: int, max_part: int) -> frozenset:
    """The triples (lcm(q^n1 - d1, ..., q^ns - ds), d1 * ... * ds, min(s, 3))
    over partitions n1 + ... + ns = rest into parts <= max_part and signs
    di in {+1, -1}, keeping in each (sign, parts) class only the values that
    divide no other value of the class.

    The recursion takes the largest part a and its multiplicity c.  Among c
    equal parts only the presence of each sign affects the lcm, and only the
    parity of the minus count affects the sign product.  Every later step
    takes lcms with the same values in both members of a class, so a value
    dropped for dividing another never yields a maximal one."""
    if rest == 0:
        return frozenset({(1, 1, 0)})
    classes: dict[tuple[int, int], set[int]] = {}
    for a in range(min(rest, max_part), 0, -1):
        minus, plus = q**a - 1, q**a + 1
        both = math.lcm(minus, plus)
        for c in range(1, rest // a + 1):
            tail = _lcm_states(q, rest - a * c, a - 1)
            # all c signs +1, all -1, or both with an odd or (c >= 3) even
            # count of -1
            opts = {(minus, 1), (plus, (-1) ** c)}
            opts.update((both, (-1) ** m) for m in range(1, min(c, 3)))
            for v, s in opts:
                for w, t, k in tail:
                    key = (s * t, min(k + c, 3))
                    classes.setdefault(key, set()).add(math.lcm(v, w))
    return frozenset(
        (v, s, k) for (s, k), vals in classes.items() for v in _maximal(vals)
    )


def _tori(q: int, rank: int, one_part_divisor: int) -> set[int]:
    """The maximal values of lcm(q^n1 - d1, ..., q^ns - ds) over signed
    partitions of rank, the orders the maximal tori of rank `rank` reach,
    with the one-part values q^rank -/+ 1 divided by one_part_divisor.
    Rank 0 gives {1}."""
    return {
        v // one_part_divisor if k == 1 else v
        for v, s, k in _lcm_states(q, rank, rank)
    }


def _sp_gens(n: int, q: int, p: int, divisor: int) -> set[int]:
    """Spectrum generators for S_2n(q) (divisor 1) and O_2n+1(q) (divisor 2,
    q odd): the maximal tori, and p^k times the tori of rank n - u_k left
    beside a unipotent of order p^k, u_k = p^(k-1) // 2 + 1, for k >= 1."""
    gens = _tori(q, n, 2 if p != 2 else 1)
    k = 1
    while (u := p ** (k - 1) // 2 + 1) <= n:
        gens |= {p**k * v for v in _tori(q, n - u, divisor)}
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


def go8minus_extras(q: int) -> tuple[int, ...]:
    """The generators that GO8-(q) adds to those of O8-(q), even q."""
    return (2 * (q**3 + 1), 2 * (q**3 - 1), 4 * (q**2 + 1), 8 * (q + 1), 8 * (q - 1))


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
    gens |= {v for v, s, k in _lcm_states(q, n, n) if k == 3 and s == eps}
    return gens


def _check_rank(group: GroupId) -> None:
    if group.n > MAX_RANK:
        raise UnsupportedError(
            f"rank n={group.n} exceeds the supported bound {MAX_RANK}"
        )


def _check_part(part: str) -> None:
    if part not in (FULL, PPRIME):
        raise DomainError(
            f"unknown spectrum part {part!r}; expected {FULL!r} or {PPRIME!r}"
        )


def spectrum_values(group: GroupId, part: str) -> set[int]:
    """The unreduced closed-form values of a part, FULL or PPRIME: every
    element order of the part divides one, and every reduced generator is
    one (for PPRIME, its p'-part).  Only Dplus and Dminus have p'-values of
    their own (_semi_gens); the other families keep their p-parts, which a
    prime graph on primes other than p never reads."""
    _check_part(part)
    _check_rank(group)
    n, q, p = group.n, group.q, group.p
    if part == PPRIME and group.family in (DPLUS, DMINUS):
        return _semi_gens(n, q, 1 if group.family == DPLUS else -1)
    if group.family == SP:
        if (n, q) == (2, 2):
            raise DomainError(
                "S4(2) excluded: not simple, closed form inapplicable"
            )
        return _sp_gens(n, q, p, 1)
    if group.family == BN:
        return _sp_gens(n, q, p, 2)
    if group.family == O8PLUS or (group.family == DPLUS and n == 4):
        return _o8plus_gens(q, p)
    if group.family == O8MINUS or (group.family == DMINUS and n == 4 and p == 2):
        return _o8minus_gens(q)
    if group.family == GO8MINUS:
        return _o8minus_gens(q) | set(go8minus_extras(q))
    raise UnsupportedError(
        f"full spectrum of {group.name()} has no closed form here; "
        "only the p'-part is available for this family"
    )


def spectrum(group: GroupId) -> SpectrumGens:
    """The full spectrum as a reduced generator list."""
    raw = spectrum_values(group, FULL)
    return reduce_gens(raw, label=group.name(), group=group)


def spectrum_p_prime(group: GroupId) -> SpectrumGens:
    """The p'-part of the spectrum (orders coprime to the characteristic)."""
    p = group.p
    raw = {arith.coprime_part(v, p) for v in spectrum_values(group, PPRIME)}
    return reduce_gens(raw, label=group.name(), part=f"{p}'", group=group)


def spectrum_of_part(group: GroupId, part: str) -> SpectrumGens:
    """The full spectrum (part FULL) or its p'-part (part PPRIME)."""
    _check_part(part)
    return spectrum(group) if part == FULL else spectrum_p_prime(group)
