import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, strategies as st

from voatwist.scalars import (
    Cyc,
    binom,
    cyclotomic_poly,
    fmt_rational,
    fmt_scalar,
    parse_rational,
)

rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


def test_parse_rational_accepts_plain_and_slash_forms():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("0") == 0


def test_parse_rational_rejects_garbage():
    for bad in ("", "1/0", "x", "1.5.2"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rational(bad)


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(fmt_rational(q)) == q


def test_binom_matches_comb_on_integers():
    for n in range(8):
        for i in range(n + 2):
            assert binom(n, i) == math.comb(n, i) if i <= n else binom(n, i) == 0


def test_binom_fractional_argument():
    # (-1/2 choose 2) = (-1/2)(-3/2)/2
    assert binom(F(-1, 2), 2) == F(3, 8)
    assert binom(F(1, 3), 1) == F(1, 3)
    assert binom(F(5, 2), 0) == 1


def test_binom_matches_sympy_and_stays_int_on_integral_arguments():
    args = list(range(-7, 8)) + [F(n) for n in range(-7, 8)] \
        + [F(1, 2), F(-1, 3), F(5, 2)]
    for e in args:
        for i in range(8):
            got = binom(e, i)
            want = sympy.binomial(sympy.Rational(e.numerator, e.denominator), i)
            assert got == F(int(want.p), int(want.q))
            assert isinstance(got, int) == (e.denominator == 1)
        assert binom(e, -1) == 0


def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == (F(-1), F(1))
    assert cyclotomic_poly(2) == (F(1), F(1))
    assert cyclotomic_poly(4) == (F(1), F(0), F(1))
    assert cyclotomic_poly(6) == (F(1), F(-1), F(1))


def test_cyclotomic_product_recovers_x_pow_n_minus_one():
    # prod over d | n of Phi_d(x) = x^n - 1
    for n in (1, 2, 3, 4, 6, 12):
        prod = (F(1),)
        for d in range(1, n + 1):
            if n % d:
                continue
            phi = cyclotomic_poly(d)
            out = [F(0)] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = tuple(out)
        want = tuple([F(-1)] + [F(0)] * (n - 1) + [F(1)])
        assert prod == want


def test_zeta_powers():
    i = Cyc.zeta(4, 1)
    assert i * i == Cyc.of(-1)
    assert i * i * i * i == Cyc.of(1)
    z3 = Cyc.zeta(3, 1)
    assert z3 + z3 * z3 + Cyc.of(1) == Cyc.of(0)


def test_mixed_order_product():
    # zeta_2 * zeta_3 = zeta_6^5 since zeta_2 = zeta_6^3, zeta_3 = zeta_6^2
    assert Cyc.zeta(2, 1) * Cyc.zeta(3, 1) == Cyc.zeta(6, 5)


def test_t_polynomial_arithmetic():
    t = Cyc.t_power(1)
    sq = (t + Cyc.of(1)) * (t + Cyc.of(1))
    assert sq == Cyc.t_power(2) + 2 * t + Cyc.of(1)
    assert (sq - sq).is_zero()


def test_rational_value_extraction():
    c = Cyc.of(F(5, 3))
    assert c.is_rational()
    assert c.rational_value() == F(5, 3)
    with pytest.raises(ValueError):
        Cyc.zeta(3, 1).rational_value()


def test_division_by_rational():
    z = Cyc.zeta(8, 1)
    assert (z * 3) / 3 == z
    assert z / F(1, 2) == 2 * z


def test_zeta_identity_rebases_to_rational():
    # zeta_5^0 should canonicalize down to the order-1 representation
    assert Cyc.zeta(5, 0) == Cyc.of(1)
    assert Cyc.zeta(5, 5).is_rational()


def test_cyc_int_operands_match_fraction_operands():
    # ints reach Cyc arithmetic, e.g. an integral binomial in branch_shift
    z = Cyc.zeta(3, 1) * Cyc.t_power(1) + Cyc.zeta(3, 2) * F(1, 2)
    for n in (-3, 0, 1, 5):
        q = F(n)
        assert z + n == z + q and n + z == q + z
        assert z - n == z - q and n - z == q - z
        assert z * n == z * q and n * z == q * z
        assert Cyc.of(n) == n and Cyc.of(q) == n and n == Cyc.of(q)
        assert (z == n) is False
        assert (Cyc.zeta(6, 2) * n) * Cyc.zeta(6, 4) == Cyc.of(q)


@pytest.mark.parametrize("order", [3, 4, 6])
def test_cyc_products_match_sympy_remainder(order):
    x = sympy.symbols("x")
    phi = sympy.cyclotomic_poly(order, x)
    deg = int(sympy.degree(phi, x))
    rng = random.Random(order)
    for _ in range(25):
        # int and Fraction coefficients on every power of zeta, unreduced
        a = [rng.randint(-4, 4) for _ in range(order)]
        b = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(order)]
        ca = sum((Cyc.zeta(order, k) * c for k, c in enumerate(a)), Cyc.of(0))
        cb = sum((Cyc.zeta(order, k) * c for k, c in enumerate(b)), Cyc.of(0))
        pa = sum(c * x ** k for k, c in enumerate(a))
        pb = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
                 for k, c in enumerate(b))
        rem = sympy.Poly(sympy.rem(sympy.expand(pa * pb), phi, x), x)
        want = [rem.coeff_monomial(x ** j) for j in range(deg)]
        assert ca * cb == Cyc(order, {0: [F(int(c.p), int(c.q)) for c in want]})


def test_scalar_helpers_accept_mixed_types():
    assert not Cyc.of(0)
    assert not (Cyc.t_power(1) - Cyc.t_power(1))
    assert bool(Cyc.t_power(1))
    assert bool(Cyc.zeta(3, 1))


def test_fmt_scalar_is_deterministic():
    a = Cyc.zeta(3, 1) + Cyc.t_power(1) * F(1, 2)
    assert fmt_scalar(a) == fmt_scalar(Cyc.t_power(1) * F(1, 2) + Cyc.zeta(3, 1))


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_cyc_ring_laws_on_zeta6_span(a, b, c):
    z = Cyc.zeta(6, 1)
    x = Cyc.of(a) + z * b
    y = Cyc.of(c) + z * a
    w = Cyc.of(b) + Cyc.t_power(1) * c
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + w) == x * y + x * w


zeta_vectors = st.lists(st.lists(rationals, min_size=1, max_size=4),
                        min_size=1, max_size=3)


@given(st.integers(1, 6), zeta_vectors, rationals.filter(bool))
def test_rational_multiple_keeps_the_canonical_form(order, vectors, q):
    """x * q, scaled without the constructor, equals x rebuilt through
    Cyc(order, coeffs) with scaled coordinates: same order, same coeffs,
    the same coordinate types, and no integral Fraction."""
    x = sum((Cyc.zeta(order, k) * c * Cyc.t_power(t)
             for t, vec in enumerate(vectors) for k, c in enumerate(vec)), Cyc.of(0))
    for scalar in (q, int(q) or 1, F(int(q) or 1)):
        got = x * scalar
        want = Cyc(x.order, {t: [scalar * a for a in vec] for t, vec in x.coeffs.items()})
        assert (got.order, got.coeffs) == (want.order, want.coeffs)
        assert [type(a) for vec in got.coeffs.values() for a in vec] == \
            [type(a) for vec in want.coeffs.values() for a in vec]
        assert not any(type(a) is F and a.denominator == 1
                       for vec in got.coeffs.values() for a in vec)
