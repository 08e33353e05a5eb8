"""Parameterized re-derivation of the set-theoretic facts the classification
arguments consume: spectrum differences, adjacency bounds, coclique
witnesses, and the GO8- isospectrality, each as a check emitting a report.

Verdicts:

* pass/fail: decided against materialized spectra; every fail carries a
  concrete integer witness.
* vacuous: the quantified prime set is empty, nothing to check.
* assumed: the conclusion rests on a cited adjacency bound whose hypotheses
  were verified here but whose conclusion is not independently decidable at
  these parameters (no full spectrum closed form); reported explicitly.
* info: recorded observation, not part of the verdict conjunction.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import arith, oracle, primegraph, spectra, zsigmondy
from .errors import DomainError, OrdspecError, UsageError
from .spectra import BN, DMINUS, DPLUS, FULL, GO8MINUS, O8MINUS, O8PLUS, SP

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
ASSUMED = "assumed"
INFO = "info"


@dataclass(frozen=True)
class Claim:
    statement: str
    verdict: str
    witness: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, FAIL, VACUOUS, ASSUMED, INFO):
            raise DomainError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and not self.witness:
            raise DomainError("failed claims must carry a witness")


@dataclass
class CheckReport:
    check_id: str
    params: dict
    claims: tuple[Claim, ...]
    elapsed: float = 0.0

    @property
    def overall(self) -> str:
        return FAIL if any(c.verdict == FAIL for c in self.claims) else PASS

    @property
    def passed(self) -> bool:
        return self.overall == PASS


def _claim_bool(statement: str, ok: bool, witness: tuple[int, ...]) -> Claim:
    return Claim(statement, PASS if ok else FAIL, () if ok else witness)


def serialize_report(report: CheckReport, include_timing: bool = False) -> str:
    """Canonical JSON; identical checks serialize byte-identically (timing
    is excluded unless asked for)."""
    obj = {
        "check_id": report.check_id,
        "params": {k: str(v) for k, v in sorted(report.params.items())},
        "claims": [
            {
                "statement": c.statement,
                "verdict": c.verdict,
                "witness": [str(w) for w in c.witness],
            }
            for c in report.claims
        ],
        "overall": report.overall,
    }
    if include_timing:
        obj["elapsed"] = f"{report.elapsed:.3f}"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def parse_report(text: str) -> CheckReport:
    try:
        obj = json.loads(text)
        claims = tuple(
            Claim(
                c["statement"],
                c["verdict"],
                tuple(int(w) for w in c["witness"]),
            )
            for c in obj["claims"]
        )
        return CheckReport(
            obj["check_id"],
            dict(obj["params"]),
            claims,
            float(obj.get("elapsed", 0.0)),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed report serialization: {exc}") from exc


def summary(report: CheckReport) -> str:
    lines = [f"[{report.overall.upper()}] {report.check_id}"]
    for c in report.claims:
        mark = {PASS: "+", FAIL: "!", VACUOUS: "0", ASSUMED: "~", INFO: "."}[
            c.verdict
        ]
        line = f"  {mark} {c.statement}"
        if c.witness:
            line += f"  [witness: {', '.join(str(w) for w in c.witness)}]"
        lines.append(line)
    return "\n".join(lines)


def _timed(check_id: str, params: dict, claims: list[Claim], t0: float) -> CheckReport:
    return CheckReport(check_id, params, tuple(claims), time.perf_counter() - t0)


def _bn_or_sp(n: int, q: int) -> spectra.GroupId:
    """The odd-dimensional orthogonal group; for n = 2 or even q this is the
    isomorphic symplectic group."""
    if n >= 3:
        return spectra.group_id(BN, n, q)
    return spectra.group_id(SP, n, q)


# ---------------------------------------------------------------------------
# spectrum difference checks


def check_diff(item: str, n: int, q: int) -> CheckReport:
    t0 = time.perf_counter()
    p, _ = spectra.split_prime_power(q)
    params = {"item": item, "n": n, "q": q}
    check_id = f"diff:{item}:n{n}:q{q}"
    claims: list[Claim] = []

    if item == "i":
        if p == 2:
            raise DomainError("item (i) needs odd q")
        if n < 3:
            raise DomainError("item (i) needs n >= 3")
        sp = spectra.spectrum(spectra.group_id(SP, n, q))
        bn = spectra.spectrum(spectra.group_id(BN, n, q))
        eps = 1 if q ** (n - 1) % 4 == 1 else -1
        level = 2 * (n - 1) if eps == 1 else n - 1
        other = n - 1 if eps == 1 else 2 * (n - 1)
        params["branch"] = f"q^(n-1) = {eps} mod 4, level {level}"
        rs = zsigmondy.primitive_prime_divisors(q, level)
        if not rs:
            claims.append(Claim(f"R_{level}({q}) is empty", VACUOUS))
        for r in rs:
            x = 2 * p * r
            claims.append(_claim_bool(
                f"2p r = {x} (r={r}) lies in {sp.label} spectrum",
                spectra.contains(sp, x), (x,),
            ))
            claims.append(_claim_bool(
                f"2p r = {x} (r={r}) avoids {bn.label} spectrum",
                not spectra.contains(bn, x), (x,),
            ))
        for r in zsigmondy.primitive_prime_divisors(q, other):
            x = 2 * p * r
            claims.append(Claim(
                f"other branch, r={r}: 2pr={x} in {sp.label}: "
                f"{spectra.contains(sp, x)}, in {bn.label}: "
                f"{spectra.contains(bn, x)}",
                INFO,
            ))
        return _timed(check_id, params, claims, t0)

    if item == "ii":
        if n < 4:
            raise DomainError("item (ii) needs n >= 4")
        if (n, q) == (4, 2):
            raise DomainError("item (ii) excludes (n, q) = (4, 2)")
        bn = spectra.spectrum(spectra.group_id(BN, n, q))
        levels = [2 * n - 2] + ([n - 1] if n % 2 == 0 else [])
        for k in levels:
            rs = zsigmondy.primitive_prime_divisors(q, k)
            if not rs:
                claims.append(Claim(f"R_{k}({q}) is empty", VACUOUS))
                continue
            direct = n == 4 and p == 2
            if not direct:
                hyp = (k % 2 == 1 and k > n - 2) or (
                    k % 2 == 0 and k // 2 > n - 2
                )
                claims.append(_claim_bool(
                    f"adjacency-bound hypothesis for k={k}: odd k > n-2 "
                    f"or even k with k/2 > n-2",
                    hyp, (k,),
                ))
            for r in rs:
                x = p * r
                claims.append(_claim_bool(
                    f"p r = {x} (r={r} of order {k}) lies in {bn.label} spectrum",
                    spectra.contains(bn, x), (x,),
                ))
                if direct:
                    dm = spectra.spectrum(spectra.group_id(O8MINUS, 4, q))
                    claims.append(_claim_bool(
                        f"p r = {x} avoids {dm.label} spectrum",
                        not spectra.contains(dm, x), (x,),
                    ))
                else:
                    claims.append(Claim(
                        f"p r = {x} avoids the O{2*n}-({q}) spectrum: "
                        "conditional on the adjacency bound (no full closed "
                        "form at these parameters)",
                        ASSUMED,
                    ))
        return _timed(check_id, params, claims, t0)

    if item == "iii":
        if q <= 3:
            raise DomainError("item (iii) needs q > 3")
        d2 = 2 if p != 2 else 1
        x = (q**4 - 1) // d2**2
        o8p = spectra.spectrum(spectra.group_id(O8PLUS, 4, q))
        s6 = spectra.spectrum(spectra.group_id(SP, 3, q))
        claims.append(_claim_bool(
            f"(q^4-1)/(2,q-1)^2 = {x} lies in {o8p.label} spectrum",
            spectra.contains(o8p, x), (x,),
        ))
        claims.append(_claim_bool(
            f"{x} avoids {s6.label} spectrum",
            not spectra.contains(s6, x), (x,),
        ))
        return _timed(check_id, params, claims, t0)

    if item == "iv":
        if p == 2:
            raise DomainError("item (iv) needs odd q")
        x = p * (q**2 + 1)
        s6 = spectra.spectrum(spectra.group_id(SP, 3, q))
        o8p = spectra.spectrum(spectra.group_id(O8PLUS, 4, q))
        claims.append(_claim_bool(
            f"p(q^2+1) = {x} lies in {s6.label} spectrum",
            spectra.contains(s6, x), (x,),
        ))
        claims.append(_claim_bool(
            f"{x} avoids {o8p.label} spectrum",
            not spectra.contains(o8p, x), (x,),
        ))
        return _timed(check_id, params, claims, t0)

    if item == "v":
        if n < 2:
            raise DomainError("item (v) needs n >= 2")
        lower = spectra.spectrum(_bn_or_sp(n, q))
        upper = spectra.spectrum(spectra.group_id(SP, n, q))
        ok, wit = spectra.is_sub_spectrum(lower, upper)
        claims.append(_claim_bool(
            f"spectrum of O{2*n+1}({q}) is contained in that of S{2*n}({q})",
            ok, (wit,) if wit else (0,),
        ))
        return _timed(check_id, params, claims, t0)

    if item == "vi":
        if n < 4:
            raise DomainError(
                "item (vi) is checked for n >= 4 (the semisimple closed form "
                "needs n >= 4)"
            )
        low = spectra.spectrum_p_prime(spectra.group_id(BN, n - 1, q))
        high = spectra.spectrum_p_prime(spectra.group_id(BN, n, q))
        for fam, eps_name in ((DPLUS, "+"), (DMINUS, "-")):
            mid = spectra.spectrum_p_prime(spectra.group_id(fam, n, q))
            ok1, w1 = spectra.is_sub_spectrum(low, mid)
            claims.append(_claim_bool(
                f"p'-spectrum of O{2*n-1}({q}) within that of O{2*n}{eps_name}({q})",
                ok1, (w1,) if w1 else (0,),
            ))
            ok2, w2 = spectra.is_sub_spectrum(mid, high)
            claims.append(_claim_bool(
                f"p'-spectrum of O{2*n}{eps_name}({q}) within that of O{2*n+1}({q})",
                ok2, (w2,) if w2 else (0,),
            ))
        if n == 4:
            lo_full = spectra.spectrum(_bn_or_sp(3, q))
            hi_full = spectra.spectrum(spectra.group_id(BN, 4, q))
            mids = [spectra.spectrum(spectra.group_id(O8PLUS, 4, q))]
            if p == 2:
                mids.append(spectra.spectrum(spectra.group_id(O8MINUS, 4, q)))
            for mid in mids:
                ok1, w1 = spectra.is_sub_spectrum(lo_full, mid)
                claims.append(_claim_bool(
                    f"full spectrum of O7({q}) within that of {mid.label}",
                    ok1, (w1,) if w1 else (0,),
                ))
                ok2, w2 = spectra.is_sub_spectrum(mid, hi_full)
                claims.append(_claim_bool(
                    f"full spectrum of {mid.label} within that of O9({q})",
                    ok2, (w2,) if w2 else (0,),
                ))
        return _timed(check_id, params, claims, t0)

    raise DomainError(f"unknown diff item {item!r}; expected i..vi")


# ---------------------------------------------------------------------------
# adjacency checks


def _divides_some(value: int, targets) -> bool:
    return any(t % value == 0 for t in targets)


def check_adjacency(which: str, group: spectra.GroupId, k: int) -> CheckReport:
    t0 = time.perf_counter()
    n, q, p = group.n, group.q, group.p
    params = {"which": which, "group": group.name(), "k": k}
    check_id = f"adj:{which}:{group.name()}:k{k}"
    claims: list[Claim] = []

    if which == "adj_s":
        if group.family not in (SP, BN):
            raise DomainError("adj_s applies to S_2n(q)/O_2n+1(q)")
        if n < 5:
            raise DomainError("adj_s needs n >= 5")
        if k <= 2:
            raise DomainError("adj_s needs k > 2")
        d2 = 2 if p != 2 else 1
        if k == 2 * n:
            targets = [(q**n + 1) // d2]
        elif k == 2 * n - 2:
            targets = [
                arith.gcd_lcm((q ** (n - 1) + 1, q + 1))[1],
                arith.gcd_lcm((q ** (n - 1) + 1, q - 1))[1],
            ]
        elif k == n - 1 and n % 2 == 0:
            targets = [
                arith.gcd_lcm((q ** (n - 1) - 1, q + 1))[1],
                arith.gcd_lcm((q ** (n - 1) - 1, q - 1))[1],
            ]
        else:
            raise DomainError(
                f"adj_s branch k={k} not covered (want 2n, 2n-2, or n-1 "
                "with n even)"
            )
        spec = spectra.spectrum_p_prime(group)
    elif which == "adj_o":
        if group.family != DPLUS:
            raise DomainError("adj_o applies to O_2n+(q)")
        if n < 6 or n % 2:
            raise DomainError("adj_o needs n >= 6 even")
        if k == 2 * n - 2:
            targets = [q ** (n - 1) + 1]
        elif k == n - 1:
            targets = [q ** (n - 1) - 1]
        else:
            raise DomainError(f"adj_o branch k={k} not covered (want 2n-2 or n-1)")
        spec = spectra.spectrum_p_prime(group)
    elif which == "adj_p":
        if group.family not in (DPLUS, DMINUS, O8PLUS, O8MINUS):
            raise DomainError("adj_p applies to O_2n^+-(q)")
        hyp = (k % 2 == 1 and k > n - 2) or (k % 2 == 0 and k // 2 > n - 2)
        claims.append(_claim_bool(
            f"hypothesis: k={k} odd with k > n-2, or even with k/2 > n-2",
            hyp, (k,),
        ))
        order_primes = set(primegraph.group_order(group).primes)
        rs = [
            r
            for r in zsigmondy.primitive_prime_divisors(q, k)
            if r in order_primes
        ]
        if not rs:
            claims.append(Claim(f"R_{k}({q}) meets no prime of the order", VACUOUS))
        full_available = (
            group.family in (O8PLUS, O8MINUS)
            or (group.family == DPLUS and n == 4)
            or (group.family == DMINUS and n == 4 and p == 2)
        )
        for r in rs:
            if full_available:
                spec_full = spectra.spectrum(group)
                claims.append(_claim_bool(
                    f"r p = {r * p} avoids the {group.name()} spectrum",
                    not spectra.contains(spec_full, r * p), (r * p,),
                ))
            else:
                claims.append(Claim(
                    f"r p = {r * p} avoids the {group.name()} spectrum: "
                    "assumed from the cited adjacency bound (hypothesis "
                    "checked above; no full closed form here)",
                    ASSUMED,
                ))
        return _timed(check_id, params, claims, t0)
    else:
        raise DomainError(f"unknown adjacency check {which!r}")

    order_primes = set(primegraph.group_order(group).primes)
    rs = [
        r for r in zsigmondy.primitive_prime_divisors(q, k) if r in order_primes
    ]
    if not rs:
        claims.append(Claim(
            f"R_{k}({q}) contains no prime of the group order", VACUOUS
        ))
    for r in rs:
        bad = [g for g in spec.gens if g % r == 0 and not _divides_some(g, targets)]
        claims.append(_claim_bool(
            f"every generator of the {spec.part} spectrum of {group.name()} "
            f"divisible by r={r} divides one of {targets}",
            not bad, tuple(bad),
        ))
    return _timed(check_id, params, claims, t0)


# ---------------------------------------------------------------------------
# coclique witnesses


def _witness_prime_sets(case: str, n: int, q: int):
    """The three primitive-divisor pools (s, r, w) for each witness case."""
    p, m = spectra.split_prime_power(q)
    if case == "n_odd":
        if n < 5 or n % 2 == 0:
            raise DomainError("case n_odd needs odd n >= 5")
        s_pool = zsigmondy.primitive_prime_divisors(q, 2 * n - 2)
        r_pool = zsigmondy.primitive_prime_divisors(p, n * m)
        w_pool = zsigmondy.primitive_prime_divisors(q, 2 * n)
        return (
            (f"R_{2*n-2}({q})", s_pool),
            (f"R_{n*m}({p})", r_pool),
            (f"R_{2*n}({q})", w_pool),
        )
    if case in ("n_even", "dplus"):
        if n < 6 or n % 2:
            raise DomainError(f"case {case} needs even n >= 6")
        if (n, q) == (8, 2):
            r_pool = tuple(sorted(
                set(zsigmondy.primitive_prime_divisors(2, 3))
                | set(zsigmondy.primitive_prime_divisors(2, 5))
            ))
            r_name = "R_3(2) u R_5(2) [the (8,2) substitution]"
        else:
            r_pool = tuple(sorted(
                set(zsigmondy.primitive_prime_divisors(p, (n - 2) * m))
                | set(zsigmondy.primitive_prime_divisors(p, (n + 2) * m))
            ))
            r_name = f"R_{(n-2)*m}({p}) u R_{(n+2)*m}({p})"
        s_pool = zsigmondy.primitive_prime_divisors(q, 2 * n - 2)
        w_pool = zsigmondy.primitive_prime_divisors(q, n - 1)
        if case == "n_even":
            return (
                (f"R_{2*n-2}({q})", s_pool),
                (r_name, r_pool),
                (f"R_{n-1}({q})", w_pool),
            )
        return (
            (f"R_{n-1}({q})", w_pool),
            (r_name, r_pool),
            (f"R_{2*n-2}({q})", s_pool),
        )
    raise DomainError(f"unknown coclique case {case!r}")


def check_coclique_witness(case: str, n: int, q: int) -> CheckReport:
    t0 = time.perf_counter()
    p, m = spectra.split_prime_power(q)
    params = {"case": case, "n": n, "q": q}
    check_id = f"coclique:{case}:n{n}:q{q}"
    claims: list[Claim] = []
    pools = _witness_prime_sets(case, n, q)
    for name, pool in pools:
        if not pool:
            claims.append(Claim(f"{name} is empty", VACUOUS))
    if any(not pool for _, pool in pools):
        return _timed(check_id, params, claims, t0)

    if case == "dplus":
        group = spectra.group_id(DPLUS, n, q)
        spec = spectra.spectrum_p_prime(group)
        label = f"GK({group.name()}) restricted to p'-vertices"
        big_specs = [(label, spec)]
    else:
        sp = spectra.group_id(SP, n, q)
        big_specs = [(f"GK({sp.name()})", spectra.spectrum(sp))]
        if p != 2:
            bn = spectra.group_id(BN, n, q)
            big_specs.append((f"GK({bn.name()})", spectra.spectrum(bn)))

    for label, spec in big_specs:
        for s in pools[0][1]:
            for r in pools[1][1]:
                for w in pools[2][1]:
                    triple = (s, r, w)
                    if len(set(triple)) < 3:
                        claims.append(Claim(
                            f"witness primes collide: {triple}", FAIL, triple
                        ))
                        continue
                    bad = tuple(
                        a * b
                        for a, b in ((s, r), (s, w), (r, w))
                        if spectra.contains(spec, a * b)
                    )
                    claims.append(_claim_bool(
                        f"{{{s},{r},{w}}} is a coclique in {label}",
                        not bad, bad,
                    ))

    if case == "n_odd":
        for _, spec in big_specs:
            for w in pools[2][1]:
                claims.append(_claim_bool(
                    f"p w = {p * w} (w={w}) avoids the spectrum of {spec.label}",
                    not spectra.contains(spec, p * w), (p * w,),
                ))
        return _timed(check_id, params, claims, t0)

    # r1 r2 membership: inside every candidate for the big group, outside
    # every candidate for the socle one step below it.
    if case == "n_even":
        smalls = [spectra.spectrum_p_prime(spectra.group_id(DMINUS, n, q))]
        p_avoid_pool = zsigmondy.primitive_prime_divisors(q, 2 * n)
    else:
        smalls = [spectra.spectrum(spectra.group_id(SP, n - 1, q))]
        if p != 2:
            smalls.append(spectra.spectrum(spectra.group_id(BN, n - 1, q)))
        p_avoid_pool = ()
    if (n, q) == (8, 2):
        r1s = zsigmondy.primitive_prime_divisors(2, 3)
        r2s = zsigmondy.primitive_prime_divisors(2, 5)
    else:
        r1s = zsigmondy.primitive_prime_divisors(p, (n - 2) * m)
        r2s = zsigmondy.primitive_prime_divisors(p, (n + 2) * m)
    for r1 in r1s:
        for r2 in r2s:
            x = r1 * r2
            for _, spec in big_specs:
                claims.append(_claim_bool(
                    f"r1 r2 = {x} lies in the {spec.part} spectrum of "
                    f"{spec.label}",
                    spectra.contains(spec, x), (x,),
                ))
            for small in smalls:
                claims.append(_claim_bool(
                    f"r1 r2 = {x} avoids the {small.part} spectrum of "
                    f"{small.label}",
                    not spectra.contains(small, x), (x,),
                ))
    for _, spec in big_specs:
        for w in p_avoid_pool:
            claims.append(_claim_bool(
                f"p w = {p * w} (w={w}) avoids the spectrum of {spec.label}",
                not spectra.contains(spec, p * w), (p * w,),
            ))
    return _timed(check_id, params, claims, t0)


# ---------------------------------------------------------------------------
# the GO8- equality


def check_go8_equality(q: int) -> CheckReport:
    t0 = time.perf_counter()
    p, _ = spectra.split_prime_power(q)
    if p != 2:
        raise DomainError("the GO8- equality is stated for even q")
    params = {"q": q}
    check_id = f"go8:q{q}"
    claims: list[Claim] = []
    sp8 = spectra.spectrum(spectra.group_id(SP, 4, q))
    go8 = spectra.spectrum(spectra.group_id(GO8MINUS, 4, q))
    extras = [
        2 * (q**3 + 1), 2 * (q**3 - 1), 4 * (q**2 + 1),
        8 * (q + 1), 8 * (q - 1),
    ]
    for e in extras:
        claims.append(_claim_bool(
            f"extra generator {e} lies in the {sp8.label} spectrum",
            spectra.contains(sp8, e), (e,),
        ))
    ok, wit = spectra.is_sub_spectrum(sp8, go8)
    claims.append(_claim_bool(
        f"spectrum of {sp8.label} within that of {go8.label}",
        ok, (wit,) if wit else (0,),
    ))
    claims.append(_claim_bool(
        f"spectra of {go8.label} and {sp8.label} are equal",
        spectra.equals(go8, sp8), (0,),
    ))
    order = oracle.twisted_order_b_gamma(q)
    claims.append(_claim_bool(
        f"the twisted element (B gamma) over GF({q*q}) has order 8, so "
        f"8 lies in the GO6-({q}) spectrum",
        order == 8, (order,),
    ))
    if q == 2:
        group = oracle.close_group(oracle.standard_generators("GOplus", 4, 2))
        orders = oracle.element_orders(group)
        claims.append(_claim_bool(
            f"enumerated GO4+(2) has {len(group)} elements and an element "
            "of order 4",
            len(group) == 72 and spectra.contains(orders, 4), (len(group),),
        ))
    return _timed(check_id, params, claims, t0)


# ---------------------------------------------------------------------------
# membership spot checks (negative controls live here)


def check_membership(
    family: str, n: int, q: int, value: int, expected: bool, part: str = FULL
) -> CheckReport:
    t0 = time.perf_counter()
    group = spectra.group_id(family, n, q)
    spec = (
        spectra.spectrum(group)
        if part == FULL
        else spectra.spectrum_p_prime(group)
    )
    got = spectra.contains(spec, value)
    claims = [_claim_bool(
        f"{value} {'lies in' if expected else 'avoids'} the {spec.part} "
        f"spectrum of {spec.label}",
        got == expected, (value,),
    )]
    check_id = f"member:{group.name()}:{part}:{value}"
    params = {"family": family, "n": n, "q": q, "value": value,
              "expected": expected, "part": part}
    return _timed(check_id, params, claims, t0)


# ---------------------------------------------------------------------------
# suite driver


_GRID_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def default_config() -> dict:
    """The desk-scale verification grid."""
    checks: list[dict] = []
    for q in _GRID_Q:
        if q % 2:
            for n in range(3, 7):
                checks.append({"kind": "diff", "item": "i", "n": n, "q": q})
            for n in range(2, 7):
                checks.append({"kind": "diff", "item": "v", "n": n, "q": q})
            checks.append({"kind": "diff", "item": "iv", "n": 3, "q": q})
        if q > 3:
            checks.append({"kind": "diff", "item": "iii", "n": 3, "q": q})
        for n in range(4, 7):
            if (n, q) != (4, 2):
                checks.append({"kind": "diff", "item": "ii", "n": n, "q": q})
            checks.append({"kind": "diff", "item": "vi", "n": n, "q": q})
    for q in (2, 3, 4, 5):
        for n in (5, 6):
            for fam in ("Sp",) + (("Bn",) if q % 2 else ()):
                ks = [2 * n, 2 * n - 2] + ([n - 1] if n % 2 == 0 else [])
                for k in ks:
                    checks.append({
                        "kind": "adjacency", "which": "adj_s",
                        "family": fam, "n": n, "q": q, "k": k,
                    })
    for q in (2, 3):
        for k in (10, 5):
            checks.append({
                "kind": "adjacency", "which": "adj_o",
                "family": "Dplus", "n": 6, "q": q, "k": k,
            })
    for case, pairs in (
        ("n_odd", ((5, 2), (5, 3), (7, 2))),
        ("n_even", ((6, 2), (6, 3), (8, 2))),
        ("dplus", ((6, 2), (6, 3), (8, 2))),
    ):
        for n, q in pairs:
            checks.append({"kind": "coclique", "case": case, "n": n, "q": q})
    for q in (2, 4, 8, 16):
        checks.append({"kind": "go8", "q": q})
    return {"checks": checks}


_REQUIRED_KEYS = {
    "diff": {"item", "n", "q"},
    "adjacency": {"which", "family", "n", "q", "k"},
    "coclique": {"case", "n", "q"},
    "go8": {"q"},
    "membership": {"family", "n", "q", "value", "expected"},
}


def run_suite(config: dict) -> list[CheckReport]:
    """Execute every configured check; failures become failed reports, never
    aborts.  Malformed configuration raises UsageError naming the entry."""
    if not isinstance(config, dict) or "checks" not in config:
        raise UsageError('config must be an object with a "checks" list')
    entries = config["checks"]
    if not isinstance(entries, list):
        raise UsageError('"checks" must be a list')
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise UsageError(f'checks[{i}] must be an object with a "kind"')
        kind = entry["kind"]
        if kind not in _REQUIRED_KEYS:
            raise UsageError(f"checks[{i}]: unknown kind {kind!r}")
        missing = _REQUIRED_KEYS[kind] - set(entry)
        if missing:
            raise UsageError(
                f"checks[{i}] ({kind}): missing keys {sorted(missing)}"
            )
    reports = []
    for i, entry in enumerate(entries):
        kind = entry["kind"]
        try:
            if kind == "diff":
                rep = check_diff(entry["item"], int(entry["n"]), int(entry["q"]))
            elif kind == "adjacency":
                group = spectra.group_id(
                    entry["family"], int(entry["n"]), int(entry["q"])
                )
                rep = check_adjacency(entry["which"], group, int(entry["k"]))
            elif kind == "coclique":
                rep = check_coclique_witness(
                    entry["case"], int(entry["n"]), int(entry["q"])
                )
            elif kind == "go8":
                rep = check_go8_equality(int(entry["q"]))
            else:
                rep = check_membership(
                    entry["family"], int(entry["n"]), int(entry["q"]),
                    int(entry["value"]), bool(entry["expected"]),
                    entry.get("part", FULL),
                )
        except Exception as exc:  # noqa: BLE001 - a faulty check is a FAIL
            # anticipated errors keep their message; anything else is named
            what = "" if isinstance(exc, OrdspecError) else f" {type(exc).__name__}"
            rep = CheckReport(
                f"{kind}[{i}]", dict(entry),
                (Claim(f"check raised{what}: {exc}", FAIL, (0,)),),
            )
        reports.append(rep)
    return reports


def suite_passed(reports) -> bool:
    return all(r.passed for r in reports)
