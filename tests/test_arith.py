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


def test_is_prime_asks_sympy_once_per_value(monkeypatch) -> None:
    calls = []
    isprime = sympy.isprime

    def counting_isprime(n):
        calls.append(n)
        return isprime(n)

    arith.is_prime.cache_clear()
    monkeypatch.setattr(sympy, "isprime", counting_isprime)
    assert arith.is_prime(2**61 - 1) and arith.is_prime(2**61 - 1)
    assert not arith.is_prime(2**61 + 1) and not arith.is_prime(2**61 + 1)
    assert calls == [2**61 - 1, 2**61 + 1]
