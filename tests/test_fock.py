import gc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from voatwist.errors import CriticalLevel, DomainError, Unsupported
from voatwist.fock import PBWVector, build_module
from voatwist.lie import build_simple_lie
from voatwist.verify import basis_states

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=8)


def pbw_character(dim_g, upto):
    """Coefficients of prod_{j>=1} (1 - q^j)^(-dim_g), the PBW count."""
    coeffs = [1] + [0] * upto
    for j in range(1, upto + 1):
        for _ in range(dim_g):
            # multiply by 1/(1 - q^j)
            for n in range(j, upto + 1):
                coeffs[n] += coeffs[n - j]
    return coeffs


def test_graded_dimensions_match_generating_function():
    want = pbw_character(3, 6)
    assert MOD.basis(0) == [()]
    for n in range(7):
        assert MOD.graded_dimension(n) == want[n]
        assert len(MOD.basis(n)) == want[n]


def test_vacuum_is_annihilated_by_nonnegative_modes():
    vac = MOD.vacuum()
    for name in ("e1", "f1", "h1"):
        for m in (0, 1, 2):
            assert MOD.apply_mode(name, m, vac).is_zero()


def small_states(weights=(0, 1, 2, 3)):
    out = []
    for w in weights:
        for mono in MOD.basis(w):
            out.append(PBWVector({mono: F(1)}))
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["e1", "f1", "h1"]),
    st.sampled_from(["e1", "f1", "h1"]),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 11),
)
def test_affine_commutation_relation(xn, yn, m, n, si):
    states = small_states()
    v = states[si % len(states)]
    x, y = sl2.generator(xn), sl2.generator(yn)
    lhs = MOD.apply_mode(x, m, MOD.apply_mode(y, n, v)) - MOD.apply_mode(
        y, n, MOD.apply_mode(x, m, v)
    )
    rhs = MOD.apply_mode(sl2.bracket(x, y), m + n, v)
    if m + n == 0:
        rhs = rhs + (F(m) * sl2.form(x, y) * MOD.level) * v
    assert (lhs - rhs).is_zero()
    assert not lhs.truncated and not rhs.truncated


def test_central_charge_value():
    assert MOD.central_charge() == F(3, 2)
    critical = build_module(sl2, F(-2), cutoff=2)
    with pytest.raises(CriticalLevel):
        critical.central_charge()


def test_virasoro_bracket():
    # [L(m), L(n)] = (m - n) L(m+n) + c/12 (m^3 - m) delta_{m+n,0}
    c = MOD.central_charge()
    states = small_states((0, 1, 2))
    for m in (-2, -1, 0, 1, 2):
        for n in (-2, -1, 0, 1, 2):
            lm, ln = MOD.sugawara_mode(m), MOD.sugawara_mode(n)
            lmn = MOD.sugawara_mode(m + n)
            for v in states:
                lhs = lm(ln(v)) - ln(lm(v))
                rhs = F(m - n) * lmn(v)
                if m + n == 0:
                    rhs = rhs + (c / 12 * (m**3 - m)) * v
                assert (lhs - rhs).is_zero()


def test_conformal_vector_reproduces_sugawara_modes():
    # modes of Y(omega, x) against the normal-ordered bilinear route
    omega = MOD.conformal_vector()
    for m in (-2, -1, 0, 1, 2, 3):
        op = MOD.vertex_operator_mode(omega, m)
        want = MOD.sugawara_mode(m - 1)
        for v in small_states((0, 1, 2, 3)):
            assert (op(v) - want(v)).is_zero()


def test_conformal_weights_are_l0_eigenvalues():
    l0 = MOD.sugawara_mode(0)
    for w in (0, 1, 2, 3):
        for mono in MOD.basis(w):
            v = PBWVector({mono: F(1)})
            assert (l0(v) - F(w) * v).is_zero()


def test_creation_axiom():
    # Y(v, x) vacuum = v + O(x), and no pole at x = 0
    vac = MOD.vacuum()
    for v in small_states((1, 2, 3)):
        assert (MOD.vertex_operator_mode(v, -1)(vac) - v).is_zero()
        for m in (0, 1, 2):
            assert MOD.vertex_operator_mode(v, m)(vac).is_zero()


def test_current_recovers_state_from_conformal_vector():
    omega = MOD.conformal_vector()
    for name in ("e1", "f1", "h1"):
        a1 = MOD.apply_mode(name, 1, omega)
        assert (a1 - MOD.current(name)).is_zero()
        assert MOD.apply_mode(name, 2, omega).is_zero()


def test_truncation_is_flagged_not_silent():
    tiny = build_module(sl2, F(2), cutoff=2)
    deep = tiny.apply_mode("e1", -3, tiny.vacuum())
    assert deep.truncated


def test_nonvacuum_highest_weight_unsupported():
    with pytest.raises(Unsupported):
        build_module(sl2, F(2), cutoff=2, lam=1)


def test_modes_match_series_coefficients():
    # the coefficient reader against the whole series of a separate module
    reader = build_module(sl2, F(2), cutoff=6)
    oracle = build_module(sl2, F(2), cutoff=6)
    targets = [w for w, _label in basis_states(reader, 2)]
    states = [reader.current(n) for n in sl2.names] + [reader.conformal_vector()]
    for v in states + targets[4:7]:
        for n in range(-3, 4):
            e = F(-n - 1)
            op = reader.vertex_operator_mode(v, n)
            for w in targets:
                got = oracle.vertex_series(v, w, e).terms.get((e, 0), PBWVector())
                assert (op(w) - got).is_zero()


def test_fractional_untwisted_mode_is_a_domain_error():
    op = MOD.vertex_operator_mode(MOD.current("e1"), F(1, 2))
    with pytest.raises(DomainError):
        op(MOD.vacuum())


def _upto(series_dict, ceiling):
    # a memo entry may hold exponents above the ceiling it was asked for
    return {e: v for e, v in series_dict.items() if e <= ceiling}


def test_series_memo_is_independent_of_ceiling_order():
    monos = [m for w in range(3) for m in MOD.basis(w)]
    pairs = [(mv, mw) for mv in monos[1:] for mw in monos]
    ceilings = [-3, -2, -1, 0, 1, 2]
    fresh = {}
    for c in ceilings:
        ref = build_module(sl2, F(2), cutoff=4)
        fresh[c] = [ref._vs_mono(mv, mw, c) for mv, mw in pairs]
    for order in (ceilings, ceilings[::-1], [0, -3, 2, -1, 1, -2, 0, 2, -3]):
        mod = build_module(sl2, F(2), cutoff=4)
        for c in order:
            for (mv, mw), want in zip(pairs, fresh[c]):
                got = mod._vs_mono(mv, mw, c)
                assert _upto(got, c) == _upto(want, c)
                ser = mod.vertex_series(PBWVector({mv: F(1)}), PBWVector({mw: F(1)}), c)
                assert all(e <= c for e, _k in ser.terms)


def test_memo_entries_stay_with_their_module():
    one, two = (build_module(sl2, F(2), cutoff=3) for _ in range(2))
    one.apply_mode("e1", 0, one.current("f1"))
    one.basis(2)
    assert one._act_cache and one._basis_cache
    assert two._act_cache == {}
    assert "_basis_cache" not in vars(two)


def test_module_is_collected_after_del():
    # memo entries live on the instance, so nothing outside keeps it alive
    mod = build_module(sl2, F(2), cutoff=3)
    mod.conformal_vector()
    mod.vertex_series(mod.current("e1"), mod.current("f1"), 0)
    ref = weakref.ref(mod)
    del mod
    gc.collect()
    assert ref() is None
