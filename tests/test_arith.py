"""Unit tests for the exact arithmetic, with sympy as the reference."""

from __future__ import annotations

import math
import pathlib
import random

import pytest
import sympy
from sympy.ntheory.residue_ntheory import n_order
from sympy.polys.specialpolys import cyclotomic_poly

from ordspec import arith, primegraph, spectra
from ordspec.errors import DomainError


def test_factorize_known_values() -> None:
    assert arith.factorize(1).factors == {}
    assert arith.factorize(720).factors == {2: 4, 3: 2, 5: 1}
    assert arith.factorize(97).factors == {97: 1}
    assert arith.factorize(2**10 * 3**5).factors == {2: 10, 3: 5}


def test_factorization_validates_itself() -> None:
    with pytest.raises(DomainError):
        arith.Factorization(12, {4: 1, 3: 1})
    with pytest.raises(DomainError):
        arith.Factorization(12, {2: 1, 3: 1})
    with pytest.raises(DomainError):
        arith.Factorization(0, {})
    with pytest.raises(DomainError):
        arith.Factorization(8, {2: 0})


def test_factorization_accessors() -> None:
    f = arith.factorize(360)
    assert f.primes == (2, 3, 5)
    assert str(f) == "2^3 * 3^2 * 5"
    assert str(arith.factorize(1)) == "1"


def test_factorize_rejects_nonpositive() -> None:
    with pytest.raises(DomainError):
        arith.factorize(0)
    with pytest.raises(DomainError):
        arith.factorize(-6)


def test_factorize_random_products_round_trip() -> None:
    rng = random.Random(20260823)
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    for _ in range(50):
        value = 1
        for p in rng.sample(small_primes, rng.randint(1, 4)):
            value *= p ** rng.randint(1, 3)
        fact = arith.factorize(value)
        rebuilt = 1
        for p, e in fact.factors.items():
            rebuilt *= p**e
        assert rebuilt == value


def test_divisors() -> None:
    assert arith.divisors(1) == [1]
    assert arith.divisors(12) == [1, 2, 3, 4, 6, 12]
    with pytest.raises(DomainError):
        arith.divisors(0)


def test_r_part_and_coprime_part() -> None:
    assert arith.r_part(720, 2) == 16
    assert arith.r_part(720, 7) == 1
    assert arith.coprime_part(720, 2) == 45
    assert arith.coprime_part(720, 3) == 80
    with pytest.raises(DomainError):
        arith.r_part(12, 4)
    with pytest.raises(DomainError):
        arith.r_part(0, 2)


def test_r_part_times_coprime_part_is_identity() -> None:
    rng = random.Random(7)
    for _ in range(100):
        a = rng.randint(1, 10**6)
        r = rng.choice([2, 3, 5, 7, 11])
        part = arith.r_part(a, r)
        rest = arith.coprime_part(a, r)
        assert part * rest == a
        assert rest % r != 0
        assert part == r ** max(
            e for e in range(40) if a % r**e == 0
        )


def test_mult_order_definition() -> None:
    rng = random.Random(11)
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for _ in range(80):
        r = rng.choice(primes)
        q = rng.randint(2, 1000)
        if q % r == 0:
            with pytest.raises(DomainError):
                arith.mult_order(q, r)
            continue
        n = arith.mult_order(q, r)
        assert pow(q, n, r) == 1
        # minimality: no proper divisor of n works
        for d in arith.divisors(n)[:-1]:
            assert pow(q, d, r) != 1
    with pytest.raises(DomainError):
        arith.mult_order(2, 15)


def test_cyclotomic_values() -> None:
    assert arith.cyclotomic_value(1, 5) == 4
    assert arith.cyclotomic_value(2, 5) == 6
    assert arith.cyclotomic_value(6, 2) == 3
    assert arith.cyclotomic_value(12, 2) == 13
    with pytest.raises(DomainError):
        arith.cyclotomic_value(0, 5)
    with pytest.raises(DomainError):
        arith.cyclotomic_value(3, 1)
    for n, q in ((0, 5), (0, 4), (-1, 4), (3, 1)):
        with pytest.raises(DomainError, match="cyclotomic_value needs"):
            arith.cyclotomic_factors(n, q)


def test_cyclotomic_value_matches_sympy_polynomial() -> None:
    """The integer recursion against sympy's cyclotomic polynomials, used
    here only as a reference, for n <= 60 at every q <= 50 and at q = 4096."""
    x = sympy.Symbol("x")
    for n in range(1, 61):
        poly = sympy.Poly(cyclotomic_poly(n, x), x)
        for q in list(range(2, 51)) + [4096]:
            assert arith.cyclotomic_value(n, q) == int(poly.eval(q)), (n, q)


def test_cyclotomic_product_identity() -> None:
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 24)
        q = rng.randint(2, 9)
        prod = 1
        for d in arith.divisors(n):
            prod *= arith.cyclotomic_value(d, q)
        assert prod == q**n - 1


def test_is_prime_and_prime_divisors() -> None:
    assert arith.is_prime(2)
    assert arith.is_prime(257)
    assert not arith.is_prime(1)
    assert not arith.is_prime(91)
    assert arith.factorize(84).primes == (2, 3, 7)


def _agrees_with_sympy(values) -> None:
    """factorize, is_prime, divisors and mult_order against sympy's
    factorint, isprime, divisors and n_order at every value given."""
    for a in values:
        assert arith.factorize(a).factors == sympy.factorint(a), a
        assert arith.is_prime(a) == sympy.isprime(a), a
        assert arith.divisors(a) == sympy.divisors(a), a
        if sympy.isprime(a):
            for q in (2, 3, 10, 4096, a + 1, a - 1, 2 * a + 5):
                if q % a:
                    assert arith.mult_order(q, a) == n_order(q, a), (q, a)


def test_small_values_agree_with_sympy() -> None:
    _agrees_with_sympy(range(1, 20001))


def test_values_straddling_the_trial_division_limit_agree_with_sympy() -> None:
    _agrees_with_sympy(range(2**20 - 1500, 2**20 + 1500))


def test_prime_power_cyclotomic_factors_merge_prime_base_pieces() -> None:
    """For q = p^k with k > 1 the table merges the factored Phi_m(p); that
    must equal Phi_n(q) factored whole.  A prime q is factored whole by the
    table itself, so it is left out; q = 6 and 10 are not prime powers and
    must not be split."""
    powers = [
        q for q in range(4, 257)
        if len(f := arith.factorize(q).factors) == 1 and q not in f
    ]
    assert len(powers) == 16
    for q in powers + [6, 10]:
        for n in range(1, 25):
            whole = arith.factorize(arith.cyclotomic_value(n, q))
            assert arith.cyclotomic_factors(n, q) == tuple(
                sorted(whole.factors.items())
            ), (n, q)


def test_phi_table_rows_are_the_factorizations() -> None:
    """Every row of phi_table.txt passes its check on use and multiplies
    out to Phi_m(p), each listed factor prime by sympy too."""
    rows = arith._phi_table()
    assert len(rows) == 191
    for p, m in rows:
        value = arith.cyclotomic_value(m, p)
        assert value >= 2**20, (p, m)
        fact = arith._table_factorization(p, m, value)
        assert math.prod(r**e for r, e in fact.factors.items()) == value
        assert all(sympy.isprime(r) for r in fact.factors), (p, m)
        assert arith.cyclotomic_factors(m, p) == tuple(sorted(fact.factors.items()))


@pytest.fixture
def phi_table_text(tmp_path, monkeypatch):
    """Installs a temporary phi_table.txt, with the row of Phi_288(2)
    replaced by the given line; the caches that saw it are cleared after."""
    real = pathlib.Path(arith._PHI_TABLE).read_text(encoding="ascii")
    row = "2 288 1153 6337 38941695937 278452876033"
    assert row in real

    def install(line: str) -> None:
        path = tmp_path / "phi_table.txt"
        path.write_text(real.replace(row, line), encoding="ascii")
        monkeypatch.setattr(arith, "_PHI_TABLE", str(path))
        arith._phi_table.cache_clear()
        arith.cyclotomic_factors.cache_clear()

    yield install
    arith._phi_table.cache_clear()
    arith.cyclotomic_factors.cache_clear()


@pytest.mark.parametrize("line", [
    "2 288 1163 6337 38941695937 278452876033",  # one prime altered
    "2 288 1153^2 6337 38941695937 278452876033",  # one exponent altered
    "2 288 1153 6337 10843427231260240777921",  # two primes merged
    "2 288 1153 6337 38941695937 27845287603x",  # malformed
    "2 288 1153 6337^ 38941695937 278452876033",  # malformed
])
def test_phi_table_refuses_a_wrong_row(phi_table_text, line) -> None:
    phi_table_text(line)
    assert arith.cyclotomic_factors(25, 2) == ((601, 1), (1801, 1))
    with pytest.raises(DomainError, match=r"\(p, m\) = \(2, 288\)"):
        arith.cyclotomic_factors(288, 2)
    # Phi_24(4096) is merged from Phi_288(2), so it is refused too
    with pytest.raises(DomainError, match=r"\(p, m\) = \(2, 288\)"):
        arith.cyclotomic_factors(24, 4096)


def test_phi_table_refuses_an_unreadable_line(phi_table_text) -> None:
    phi_table_text("2 288")
    with pytest.raises(DomainError, match="cannot read the row '2 288"):
        arith.cyclotomic_factors(25, 2)


def test_closed_forms_factor_nothing_with_sympy_inside_the_table(monkeypatch) -> None:
    """Orders and prime graphs up to rank 12 over GF(4096), GF(243) and
    GF(49) read every Phi_m(p) >= 2^20 from the table."""

    def no_factorint(*args, **kwargs):
        raise AssertionError("sympy.factorint called")

    arith.cyclotomic_factors.cache_clear()
    monkeypatch.setattr(sympy, "factorint", no_factorint)
    for family, q, part in (
        ("Sp", 4096, spectra.FULL),
        ("Bn", 243, spectra.FULL),
        ("Dminus", 49, spectra.PPRIME),
    ):
        group = spectra.group_id(family, 12, q)
        order = primegraph.group_order(group)
        graph = primegraph.build_graph(group, part)
        assert set(graph.vertices) <= set(order.primes), (family, q)


def test_values_outside_the_phi_table_go_to_sympy(monkeypatch) -> None:
    """Phi_24(17) = 17^8 - 17^4 + 1 is above 2^20 but 17 is no table prime."""
    assert (17, 24) not in arith._phi_table()
    calls = []
    factorint = sympy.factorint

    def counting_factorint(a, *args, **kwargs):
        calls.append(a)
        return factorint(a, *args, **kwargs)

    arith.cyclotomic_factors.cache_clear()
    monkeypatch.setattr(sympy, "factorint", counting_factorint)
    value = 17**8 - 17**4 + 1
    assert arith.cyclotomic_factors(24, 17) == tuple(sorted(factorint(value).items()))
    assert calls == [value]


def test_is_prime_matches_sympy_on_random_odd_values() -> None:
    """Odd values of 21 to 200 bits, on both sides of the Miller-Rabin bound."""
    rng = random.Random(1801)
    for bits in range(21, 201):
        for _ in range(12):
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            assert arith.is_prime(n) == sympy.isprime(n), n
        n = sympy.randprime(1 << (bits - 1), 1 << bits)
        assert arith.is_prime(n), n


def test_is_prime_on_semiprimes_and_strong_pseudoprimes() -> None:
    """Primes near 2^64, 2^82 and 2^113 with their products, semiprimes of
    those sizes made of two halves, and the least strong pseudoprimes to the
    first 4, 9, 12 and 13 prime bases; the last one is the Miller-Rabin
    bound itself, so the strong BPSW branch decides it."""
    values = []
    for k in (64, 82, 113):
        below, above = sympy.prevprime(1 << k), sympy.nextprime(1 << k)
        half = sympy.nextprime(1 << (k // 2)) * sympy.nextprime(1 << (k - k // 2))
        values += [below, above, below * above, half, above * above]
    pseudoprimes = [
        3215031751,
        3825123056546413051,
        318665857834031151167461,
        3317044064679887385961981,
    ]
    assert pseudoprimes[-1] == arith._MR_BOUND
    for n in values + pseudoprimes:
        assert arith.is_prime(n) == sympy.isprime(n), n
    assert not any(arith.is_prime(n) for n in pseudoprimes)


def test_strong_lucas_test_matches_sympy() -> None:
    """The Lucas half of strong BPSW, on its own: it passes the strong Lucas
    pseudoprimes 5459, 5777, ..., as sympy's test does, and agrees with it
    on seeded odd values with no prime factor up to 41."""
    from sympy.ntheory.primetest import is_strong_lucas_prp

    for n in (5459, 5777, 10877, 16109, 18971):
        assert arith._strong_lucas_probable_prime(n) and not sympy.isprime(n)
    rng = random.Random(1802)
    checked = 0
    while checked < 3000:
        n = rng.getrandbits(rng.randint(8, 120)) | 1
        if n > 41 and all(n % a for a in arith._MR_BASES):
            checked += 1
            assert arith._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


def test_is_prime_answers_a_repeated_value_from_its_cache() -> None:
    arith.is_prime.cache_clear()
    assert arith.is_prime(2**89 - 1)
    before = arith.is_prime.cache_info()
    assert arith.is_prime(2**89 - 1)
    after = arith.is_prime.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_every_large_phi_table_prime_passes_is_prime() -> None:
    """The 173 table primes >= 2^20: 6 above the Miller-Rabin bound, the
    largest of 101 bits."""
    tokens = " ".join(arith._phi_table().values()).split()
    primes = sorted({r for t in tokens if (r := int(t.partition("^")[0])) >= 1 << 20})
    assert len(primes) == 173
    assert sum(r >= arith._MR_BOUND for r in primes) == 6
    assert primes[-1].bit_length() == 101
    assert all(arith.is_prime(r) for r in primes)
