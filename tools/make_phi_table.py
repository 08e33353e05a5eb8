"""Print the table of factored cyclotomic values Phi_m(p) that
`ordspec.arith.cyclotomic_factors` reads from `src/ordspec/phi_table.txt`.

    python tools/make_phi_table.py > src/ordspec/phi_table.txt

Each line is `p m r1^e1 r2 ...`: the prime base p, the index m, then the
primes of Phi_m(p) ascending, each with its exponent when that exceeds 1.
The table holds every Phi_m(p) >= 2^20 that `cyclotomic_factors(d, p^k)`
reaches for p^k <= 4096 with p in PRIMES and d dividing 2i for some
i <= spectra.MAX_RANK: the Phi_d(q) that `primegraph.group_order` reads.
Raising MAX_RANK widens the domain, so the table must then be regenerated.
Values below 2^20 are left to trial division.  Factoring uses sympy.
"""

from __future__ import annotations

import math

from sympy import factorint

from ordspec import arith, spectra

# The primes of every q <= 16; 4096 is the largest field the package uses.
PRIMES = (2, 3, 5, 7, 11, 13)
FIELD_CEILING = 4096


def domain() -> list[tuple[int, int]]:
    """Every (p, m) with Phi_m(p) >= 2^20 in the band above, sorted."""
    ds = {d for i in range(1, spectra.MAX_RANK + 1) for d in arith.divisors(2 * i)}
    pairs = set()
    for p in PRIMES:
        k = 1
        while p**k <= FIELD_CEILING:
            for d in ds:
                # Phi_d(p^k) is the product of the Phi_m(p) with m | dk and
                # m / gcd(m, k) = d
                pairs.update(
                    (p, m) for m in arith.divisors(d * k) if m // math.gcd(m, k) == d
                )
            k += 1
    return sorted(
        (p, m) for p, m in pairs if arith.cyclotomic_value(m, p) >= arith._TRIAL_LIMIT
    )


def row(p: int, m: int) -> str:
    factors = factorint(arith.cyclotomic_value(m, p))
    return " ".join(
        [str(p), str(m)]
        + [f"{r}^{e}" if e > 1 else str(r) for r, e in sorted(factors.items())]
    )


def main() -> None:
    for p, m in domain():
        print(row(p, m))


if __name__ == "__main__":
    main()
