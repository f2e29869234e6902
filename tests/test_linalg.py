from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from voatwist.linalg import (
    charpoly,
    kernel_basis,
    mat_inverse,
    mat_mul,
    mat_vec,
    poly_divmod,
    rational_roots,
    rref,
)

small_entries = st.integers(-4, 4)


def small_matrix(n, m):
    return st.lists(
        st.lists(small_entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(lambda rows: tuple(tuple(F(x) for x in r) for r in rows))


def test_inverse_round_trip():
    a = ((F(1), F(2)), (F(3), F(5)))
    inv = mat_inverse(a)
    assert mat_mul(a, inv) == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        mat_inverse(((F(1), F(2)), (F(2), F(4))))


@given(small_matrix(3, 4))
def test_kernel_vectors_annihilate(a):
    for v in kernel_basis(a):
        assert all(x == 0 for x in mat_vec(a, v))


@given(small_matrix(3, 3))
def test_rank_nullity(a):
    _, pivots = rref(a)
    assert len(pivots) + len(kernel_basis(a)) == 3


def test_charpoly_2x2():
    # x^2 - tr x + det, stored low degree first
    a = ((F(3), F(1)), (F(2), F(4)))
    assert charpoly(a) == [F(10), F(-7), F(1)]


@given(small_matrix(3, 3))
def test_cayley_hamilton(a):
    # p(a) by Horner's rule: acc -> acc a + c I, from the leading coefficient
    n = len(a)
    acc = tuple((F(0),) * n for _ in range(n))
    for c in reversed(charpoly(a)):
        acc = tuple(tuple(x + (c if i == j else 0) for j, x in enumerate(row))
                    for i, row in enumerate(mat_mul(acc, a)))
    assert acc == tuple((0,) * n for _ in range(n))


def test_poly_divmod_exact():
    # (x^2 - 1) = (x - 1)(x + 1) + 0
    q, r = poly_divmod((F(-1), F(0), F(1)), (F(-1), F(1)))
    assert list(q) == [F(1), F(1)]
    assert all(c == 0 for c in r)


def test_rational_roots_with_fractional_root():
    # (x - 1)(x + 2)(2x - 3) = 2x^3 - x^2 - 7x + 6
    p = (F(6), F(-7), F(-1), F(2))
    roots, leftover = rational_roots(p)
    assert sorted(roots) == [F(-2), F(1), F(3, 2)]
    # fully factored: only a constant survives
    assert len(leftover) == 1


def test_rational_roots_with_many_divisors():
    # constant term 223092870 = 2*3*5*...*23 has 512 divisors; listing them
    # must not trial-divide every integer up to the constant
    p = [F(1), F(0), F(1)]
    for prime in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        # p * (x + prime)
        p = [prime * a + b for a, b in zip(p + [F(0)], [F(0)] + p)]
    assert p[0] == 223092870
    roots, leftover = rational_roots(p)
    assert sorted(roots) == [F(-q) for q in (23, 19, 17, 13, 11, 7, 5, 3, 2)]
    assert leftover == [F(1), F(0), F(1)]


# -- zero-skipping products against a dense reference ----------------------

sparse_entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def sparse_product(draw):
    """(a, b, v) with a n-by-k, b k-by-m and v of length k, mostly zeros."""
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))

    def matrix(rows, cols):
        return tuple(tuple(draw(sparse_entries) for _ in range(cols))
                     for _ in range(rows))

    return matrix(n, k), matrix(k, m), matrix(1, k)[0]


def dense_mul(a, b):
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0))
                       for col in zip(*b)) for row in a)


@given(sparse_product())
def test_zero_skipping_products_match_dense_ones(drawn):
    a, b, v = drawn
    prod = mat_mul(a, b)
    assert prod == dense_mul(a, b)
    image = mat_vec(a, v)
    assert image == tuple(row[0] for row in dense_mul(a, tuple((x,) for x in v)))
    assert all(type(x) is F for row in prod for x in row)
    assert all(type(x) is F for x in image)
