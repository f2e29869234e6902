from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from voatwist.errors import DomainError
from voatwist.scalars import Cyc, binom, int_if_integral
from voatwist import series as codec
from voatwist.series import (
    LogSeries,
    PBWVector,
    accumulate,
    branch_shift,
    factor,
    factor_code,
    factors,
    lattice_point,
    linear_image,
    linear_series,
    monomial,
    monomial_weight,
    series_combine,
    series_derivative,
    series_eq,
    series_scale,
    series_sum,
)

# two weight-one monomials, e(-1)|0> and f(-1)|0> of sl2; no module is needed
A = monomial((0, -1))
B = monomial((1, -1))


def vec(c, mono=A):
    return PBWVector({mono: c})


def test_add_term_accumulates_and_cancels():
    s = LogSeries()
    s.add_term(F(1, 2), 0, {A: 3})
    s.add_term(F(1, 2), 0, {A: -3})
    assert s.is_zero()
    s.add_term(0, 1, {A: 2})
    s.add_term(0, 1, {A: 5})
    assert s.terms[(F(0), 1)].c == {A: 7}
    # a sum that cancels drops its key
    s.add_term(1, 0, {A: 1})
    s.add_term(1, 0, {A: -1})
    assert (1, 0) not in s.terms


def test_combine_add_keeps_the_terms_of_both():
    a = LogSeries({(F(0), 0): vec(1)})
    b = LogSeries({(F(1), 0): vec(1, B)})
    out = series_combine(a, b)
    assert out.terms[(F(0), 0)] == vec(1) and out.terms[(F(1), 0)] == vec(1, B)


def test_combine_scale_shifts_exponents():
    a = LogSeries({(F(2), 1): vec(3)})
    out = series_scale(a, scalar=F(2), eshift=F(-1))
    assert out.terms == {(F(1), 1): vec(6)}
    assert type(out.terms[(1, 1)].c[A]) is int


def test_derivative_of_pure_power():
    s = LogSeries({(F(3), 0): vec(1)})
    d = series_derivative(s)
    assert d.terms == {(F(2), 0): vec(3)}


def test_derivative_mixes_log_down():
    # d/dx x^e log^2 x = e x^(e-1) log^2 x + 2 x^(e-1) log x
    s = LogSeries({(F(-1, 2), 2): vec(1)})
    d = series_derivative(s)
    assert d.terms[(F(-3, 2), 2)].c == {A: F(-1, 2)}
    assert d.terms[(F(-3, 2), 1)].c == {A: 2}


def test_branch_shift_scales_fractional_powers():
    s = LogSeries({(F(1, 3), 0): vec(1)})
    out = branch_shift(s, 1, 3)
    assert out.terms[(F(1, 3), 0)].c[A] == Cyc.zeta(3, 1)
    # three branch steps return to the start
    assert series_eq(branch_shift(s, 3, 3), s) is None


def test_branch_shift_turns_log_into_log_plus_t():
    s = LogSeries({(F(0), 1): vec(1)})
    out = branch_shift(s, 1, 1)
    assert out.terms[(F(0), 1)].c[A] == Cyc.of(1)
    assert out.terms[(F(0), 0)].c[A] == Cyc.t_power(1)


def test_branch_shift_rejects_off_lattice_exponent():
    with pytest.raises(DomainError, match=r"^exponent 1/2 is not on the 1/3 lattice$"):
        branch_shift(LogSeries({(F(1, 2), 0): vec(1)}), 1, 3)


def test_lattice_point_is_the_scaled_exponent_or_none():
    for order in (1, 2, 3, 6):
        for e in (0, 2, -3, F(4), F(1, 2), F(-5, 3), F(7, 6), F(1, 4)):
            on = (F(e) * order).denominator == 1
            got = lattice_point(e, order)
            assert got == (int(F(e) * order) if on else None), (e, order)
            assert got is None or type(got) is int


def test_series_eq_reports_first_mismatch():
    a = LogSeries({(F(0), 0): vec(1), (F(1), 0): vec(2)})
    b = LogSeries({(F(0), 0): vec(1), (F(1), 0): vec(3)})
    assert series_eq(a, b) == (F(1), 0, vec(2), vec(3))
    # a missing term reads as None and never matches; a zero is never stored
    assert series_eq(a, LogSeries({(F(0), 0): vec(1)})) == (F(1), 0, vec(2), None)
    assert series_eq(LogSeries(), LogSeries({(F(0), 0): PBWVector()})) is None


def test_series_eq_compares_values_not_flags():
    # terms compare by value, whatever scalar type holds it
    a = LogSeries({(F(0), 0): vec(1), (F(1), 0): vec(Cyc.of(2))})
    b = LogSeries({(F(0), 0): vec(1), (F(1), 0): vec(2)})
    assert series_eq(a, b) is None and series_eq(b, a) is None
    assert series_eq(a, a) is None
    assert series_eq(a, LogSeries({(F(0), 0): vec(1)})) == (
        F(1), 0, vec(Cyc.of(2)), None)


def test_series_sum_drops_cancelled_keys_and_keeps_flagged_zeros():
    # every zero is dropped: a cancelled sum and an empty item alike
    ser = series_sum([
        (0, 0, {A: 1}),
        (-1, 0, {A: 2}),
        (1, 0, {A: F(1, 2)}),
        (0, 0, {A: 1}, -1),           # cancels: (0, 0) is dropped
        (-1, 0, {A: 1}, -2),          # cancels and is never hit again
        (F(2), 1, {}),                # an empty item is dropped
        (3, 0, {A: 1}),
        (3, 0, {A: 1}, -1),           # cancels: (3, 0) is dropped
        (1, 0, {A: F(1, 2)}),         # 1/2 + 1/2 is stored as an int
        (0, 0, {B: 3}),               # a re-hit key comes back last
    ])
    assert list(ser.terms) == [(1, 0), (0, 0)]
    assert all(type(e) is int for e, _k in ser.terms)
    assert ser.terms[(1, 0)].c == {A: 1} and type(ser.terms[(1, 0)].c[A]) is int
    assert ser.terms[(0, 0)].c == {B: 3}


# each row holds one value written in several ways: int, integral Fraction,
# rational Cyc, zeta_6^2 against zeta_3, -1 as a root of unity, T powers
EQUAL_FORMS = [
    [3, F(3), Cyc.of(3), Cyc.of(F(3))],
    [F(-1, 2), Cyc.of(F(-1, 2))],
    [-1, Cyc.zeta(2, 1), Cyc.zeta(4, 2), Cyc.zeta(6, 3)],
    [Cyc.zeta(3, 1), Cyc.zeta(6, 2), Cyc.zeta(6, 1) - 1],
    [Cyc.zeta(3, 2) * F(2, 3), Cyc.zeta(6, 4) * F(2, 3)],
    [Cyc.t_power(1), Cyc.t_power(1) * Cyc.zeta(5, 0)],
    [Cyc.t_power(2) * Cyc.zeta(4, 1) + 1, 1 + Cyc.zeta(4, 1) * Cyc.t_power(2)],
]
MONOS = [A, B, monomial((2, -1)), monomial((0, -2)), monomial((0, -1), (1, -1))]
classes = st.lists(st.integers(-1, len(EQUAL_FORMS) - 1),
                   min_size=len(MONOS), max_size=len(MONOS))


@settings(max_examples=300)
@given(st.data())
def test_vector_equality_is_a_zero_difference(data):
    """a == b, read off the coefficient dicts, holds exactly when a - b is
    zero, over coefficients that are equal in different representations;
    series_eq agrees with the subtraction rule on values."""
    left = data.draw(classes)
    right = list(left)
    for _ in range(data.draw(st.integers(0, 2))):
        right[data.draw(st.integers(0, len(MONOS) - 1))] = \
            data.draw(st.integers(-1, len(EQUAL_FORMS) - 1))

    def draw_vector(picks):
        return PBWVector({mono: data.draw(st.sampled_from(EQUAL_FORMS[k]))
                          for mono, k in zip(MONOS, picks) if k >= 0})

    a, b = draw_vector(left), draw_vector(right)
    assert (a == b) == (a - b).is_zero() == (left == right)
    sa, sb = LogSeries({(0, 0): a}), LogSeries({(0, 0): b})
    va, vb = sa.terms.get((0, 0)), sb.terms.get((0, 0))
    agree = (va is None and vb is None) or (
        va is not None and vb is not None and (va - vb).is_zero())
    assert (series_eq(sa, sb) is None) == agree


# -- the series functions as first written ----------------------------------
# Each added its terms one at a time, summing a re-hit key with vector +.
# They are kept as references for the item streams into series_sum.


def old_add_term(s, e, k, value):
    key = (int_if_integral(e), int(k))
    cur = s.terms.get(key)
    new = value if cur is None else cur + value
    if new.is_zero():
        s.terms.pop(key, None)
    else:
        s.terms[key] = new


def old_map_values(a, fn):
    out = LogSeries()
    for (e, k), v in a.terms.items():
        old_add_term(out, e, k, fn(v))
    return out


def old_combine(a, b):
    out = LogSeries()
    for key, v in (*a.terms.items(), *b.terms.items()):
        old_add_term(out, key[0], key[1], v)
    return out


def old_scale(a, scalar=1, eshift=0):
    out = LogSeries()
    for (e, k), v in a.terms.items():
        old_add_term(out, e + eshift, k, scalar * v)
    return out


def old_derivative(a):
    out = LogSeries()
    for (e, k), v in a.terms.items():
        if e:
            old_add_term(out, e - 1, k, e * v)
        if k:
            old_add_term(out, e - 1, k - 1, k * v)
    return out


def old_branch_shift(a, steps, order):
    out = LogSeries()
    for (e, k), v in a.terms.items():
        zfac = Cyc.zeta(order, int(e * order) * steps)
        if not k:
            old_add_term(out, e, 0, v * zfac)
            continue
        for j in range(k + 1):
            tpart = Cyc.of(1)
            for _ in range(k - j):
                tpart = tpart * Cyc.t_power(1) * steps
            old_add_term(out, e, j, v * (zfac * binom(k, j) * tpart))
    return out


def shape(s):
    """Keys in order with their types, and values with their types."""
    return [((e, type(e), k),
             sorted((mono, c, type(c).__name__) for mono, c in v.c.items()))
            for (e, k), v in s.terms.items()]


ORDER = 3
scalars = st.one_of(
    st.integers(-2, 2),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(lambda j, n: Cyc.zeta(ORDER, j) * n, st.integers(0, 2), st.integers(-2, 2)),
    st.builds(lambda n: Cyc.t_power(1) * n + 1, st.integers(-1, 1)))
# few exponents and log powers, so that the outputs hit keys again
exponents = st.builds(F, st.integers(-3, 3), st.sampled_from([1, ORDER]))
vectors = st.builds(PBWVector,
                    st.dictionaries(st.sampled_from(MONOS[:3]), scalars, max_size=3))
series = st.builds(LogSeries,
                   st.dictionaries(st.tuples(exponents, st.integers(0, 2)), vectors,
                                   max_size=6))


@settings(max_examples=300)
@given(series, series, scalars, exponents, st.integers(-2, 2))
def test_series_functions_match_their_first_forms(a, b, scalar, eshift, steps):
    # b minus part of a, so that the sum cancels some keys
    b = series_combine(b, series_scale(LogSeries(dict(list(a.terms.items())[::2])), -1))
    pairs = [
        (series_combine(a, b), old_combine(a, b)),
        (series_scale(a, scalar, eshift), old_scale(a, scalar, eshift)),
        (series_derivative(a), old_derivative(a)),
        (branch_shift(a, steps, ORDER), old_branch_shift(a, steps, ORDER)),
        (a.map_values(lambda v: scalar * v), old_map_values(a, lambda v: scalar * v)),
    ]
    for new, old in pairs:
        assert shape(new) == shape(old)


# -- the one sum step ---------------------------------------------------------


def old_accumulate(out, terms, scale=None):
    """accumulate as first written, storing raw sums; the scalar rule was
    applied to the finished dict afterwards (settle)."""
    for mono, c in terms.items():
        if scale is not None:
            c = scale * c
        cur = out.get(mono)
        if cur is not None:
            c = cur + c
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)


def settle(out):
    for mono, c in out.items():
        if type(c) is F and c.denominator == 1:
            out[mono] = c.numerator


@settings(max_examples=300)
@given(st.lists(st.tuples(st.dictionaries(st.sampled_from(MONOS), scalars, max_size=4),
                          st.one_of(st.none(), scalars)), max_size=6))
# integral Fraction sums: 1/2 + 1/2, 3 * (2/3), 1/2 + 1/2 - 1 (dropped) then a
# re-hit key, and a Cyc added to an integral sum
@example([({A: F(1, 2), B: F(2, 3)}, None), ({A: F(1, 2)}, None), ({B: F(2, 3)}, 2),
          ({A: -1}, None), ({A: F(3, 3)}, Cyc.zeta(3, 1)), ({B: F(1, 4)}, 4)])
def test_accumulate_stores_each_sum_under_the_scalar_rule(adds):
    """No integral Fraction is stored, and the dict equals the old
    sum-then-settle form in keys (in their order), values and value types."""
    got, want = {}, {}
    for terms, scale in adds:
        accumulate(got, terms.items(), scale)
        assert not any(type(c) is F and c.denominator == 1 for c in got.values())
        old_accumulate(want, terms, scale)
    settle(want)
    assert [(mono, c, type(c).__name__) for mono, c in got.items()] == \
        [(mono, c, type(c).__name__) for mono, c in want.items()]


# -- linear maps given on basis monomials ------------------------------------
# linear_image and linear_series as first written: vector + of each scaled
# image.


def first_linear_image(vec, image):
    total = PBWVector()
    for mono, c in vec.c.items():
        total = total + c * image(mono)
    return total


def first_linear_series(vec, image):
    out = LogSeries()
    for mono, c in vec.c.items():
        for (e, k), v in image(mono).terms.items():
            old_add_term(out, e, k, c * v)
    return out


def typed_vector(v):
    """Keys in order and values with their types."""
    return [(mono, c, type(c).__name__) for mono, c in v.c.items()]


def typed_series(s):
    return [((e, type(e), k), typed_vector(v)) for (e, k), v in s.terms.items()]


def test_a_basis_input_gets_its_image_itself():
    vimages = {A: vec(F(1, 2), B), B: vec(3)}
    simages = {A: LogSeries({(1, 0): vec(2)}), B: LogSeries()}
    assert linear_image(PBWVector({A: 1}), vimages.get) is vimages[A]
    assert linear_series(PBWVector({B: 1}), simages.get) is simages[B]
    # a Fraction, a Cyc 1 or a second monomial makes a fresh sum
    for v in (PBWVector({A: F(1, 2)}), PBWVector({A: Cyc.of(1)}),
              PBWVector({A: 1, B: 1})):
        got = linear_image(v, vimages.get)
        assert got is not vimages[A] and got is not vimages[B]
        assert typed_vector(got) == typed_vector(first_linear_image(v, vimages.get))
        ser = linear_series(v, simages.get)
        assert ser is not simages[A] and ser is not simages[B]
        assert typed_series(ser) == typed_series(first_linear_series(v, simages.get))


@settings(max_examples=300)
@given(vectors, st.fixed_dictionaries({mono: vectors for mono in MONOS[:3]}),
       st.fixed_dictionaries({mono: st.dictionaries(st.tuples(exponents, st.integers(0, 2)),
                                                    vectors, max_size=4)
                              for mono in MONOS[:3]}))
def test_linear_reads_match_their_first_forms(v, vimages, sterms):
    """Keys in order and value types agree with the first forms, and no image is changed by a read."""
    simages = {mono: LogSeries(terms) for mono, terms in sterms.items()}
    before = ([typed_vector(x) for x in vimages.values()],
              [typed_series(x) for x in simages.values()])
    got = linear_image(v, vimages.get)
    assert typed_vector(got) == typed_vector(first_linear_image(v, vimages.get))
    ser = linear_series(v, simages.get)
    assert typed_series(ser) == typed_series(first_linear_series(v, simages.get))
    assert ([typed_vector(x) for x in vimages.values()],
            [typed_series(x) for x in simages.values()]) == before


# -- the monomial codec -------------------------------------------------------

pairs = st.lists(st.tuples(st.integers(0, codec.MAX_GENERATORS - 1),
                           st.integers(1 - codec.SPAN, -1)), max_size=5)


@settings(max_examples=300)
@given(pairs, pairs)
@example([(0, -1)], [(0, -1), (0, -1)])
@example([(0, -2)], [(0, -1)])
@example([(0, -1)], [(1, -1023)])
def test_monomial_order_is_the_order_of_its_factor_pairs(a, b):
    """Encoded monomials compare as their (gi, m) tuples do, so sorted()
    keeps the order of a tuple spelling, and the codec round-trips."""
    ma, mb = monomial(*a), monomial(*b)
    assert (ma < mb) == (a < b) and (ma == mb) == (a == b)
    assert factors(ma) == tuple(a) and [factor(code) for code in mb] == b
    assert len(ma) == len(a) and monomial_weight(ma) == -sum(m for _g, m in a)
    assert ma.encode("utf-8").decode("utf-8") == ma


def test_factor_codes_stay_off_the_surrogates_and_refuse_what_does_not_fit():
    # the largest generator index is that of sl_32 (dim 1023); every code
    # lies above the surrogate block and below the last code point
    assert 32 ** 2 - 1 <= codec.MAX_GENERATORS < 33 ** 2 - 1
    low, high = factor_code(0, 1 - codec.SPAN), factor_code(codec.MAX_GENERATORS - 1, -1)
    assert 0xDFFF < ord(low) < ord(high) <= 0x10FFFF
    assert factor(high) == (codec.MAX_GENERATORS - 1, -1)
    for gi, m in ((-1, -1), (codec.MAX_GENERATORS, -1), (0, 0), (0, 1),
                  (0, -codec.SPAN), (2, 5)):
        with pytest.raises(DomainError):
            factor_code(gi, m)
    # the deepest mode is that of a one-factor monomial of weight MAX_WEIGHT
    assert factor(factor_code(0, -codec.MAX_WEIGHT)) == (0, -codec.MAX_WEIGHT)
    # the vacuum is the empty monomial
    assert monomial() == "" and monomial_weight("") == 0


def test_monomial_weights_are_their_decoded_sums():
    # monomial_weight is memoized per monomial: each weight it hands out is
    # the decoded sum of the modes, on every A2 basis monomial up to weight 5
    from voatwist.fock import build_module
    from voatwist.lie import build_simple_lie

    mod = build_module(build_simple_lie("A", 2), 1, 5)
    for weight in range(6):
        for mono in mod.basis(weight):
            assert monomial_weight(mono) == -sum(m for _g, m in factors(mono)) == weight
            assert PBWVector({mono: 1}).depth() == weight
    assert PBWVector().depth() == 0
