import contextlib
import gc
import io
import pathlib
import weakref
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from voatwist import cli
from voatwist.errors import CriticalLevel, DomainError, Unsupported
from voatwist.fock import ZERO, PBWVector, build_module, monomial_weight
from voatwist.lie import build_simple_lie
from voatwist.scalars import Cyc, int_if_integral
from voatwist.series import (MAX_GENERATORS, MAX_WEIGHT, accumulate, factor, factor_code,
                             monomial)
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
    assert MOD.basis(0) == [""]
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
    # modes of Y(omega, x) against the normal-ordered bilinear loop
    omega = MOD.conformal_vector()
    for m in (-2, -1, 0, 1, 2, 3):
        op = MOD.vertex_operator_mode(omega, m)
        for v in small_states((0, 1, 2, 3)):
            assert _canonical_vector(op(v)) == \
                _canonical_vector(_sugawara_loop(MOD, m - 1, v)), (m, v)


def test_conformal_weights_are_l0_eigenvalues():
    l0 = MOD.sugawara_mode(0)
    for w in (0, 1, 2, 3):
        for mono in MOD.basis(w):
            v = PBWVector({mono: F(1)})
            assert (l0(v) - F(w) * v).is_zero()


@pytest.mark.parametrize("rank, level", [(1, -2), (2, -3)])
def test_sugawara_operators_refuse_the_critical_level(rank, level):
    critical = build_module(build_simple_lie("A", rank), F(level), cutoff=2)
    message = f"level {level} equals minus the dual Coxeter number"
    with pytest.raises(CriticalLevel) as raised:
        critical.conformal_vector()
    assert str(raised.value) == message
    for n in (-1, 0, 1):
        with pytest.raises(CriticalLevel) as raised:
            critical.sugawara_mode(n)
        assert str(raised.value) == message


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("level", [F(2), F(1, 2)])
def test_l1_kills_every_current(rank, level):
    # L(1) a(-1)|0> = a(0)|0> = 0: the weight-one space is quasi-primary,
    # so make_delta's NotQuasiPrimary cannot fire on a vacuum module
    alg = build_simple_lie("A", rank)
    mod = build_module(alg, level, cutoff=2)
    l1 = mod.sugawara_mode(1)
    generic = alg.element_from_coords([F((-1) ** i * (i + 1), i + 2)
                                       for i in range(alg.dim)])
    for a in [*alg.names, generic]:
        u = mod.current(a)
        assert not u.is_zero()
        assert l1(u).is_zero(), a


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
    # a mode past the declared cutoff builds its monomial all the same
    tiny = build_module(sl2, F(2), cutoff=2)
    deep = tiny.apply_mode("e1", -3, tiny.vacuum())
    assert deep.c == MOD.apply_mode("e1", -3, MOD.vacuum()).c != {}


def test_coefficients_past_the_cutoff_are_flagged():
    # e1(-1) w has weight 3, at the cutoff, and e1(-2) w weight 4, past it:
    # both read the values of a module declared with cutoff 8
    tiny = build_module(sl2, F(2), cutoff=3)
    e1 = tiny.current("e1")
    w = tiny.apply_mode("e1", -1, tiny.current("f1"))
    for n in (-1, -2):
        got = tiny.vertex_operator_mode(e1, n)(w)
        assert got.c == MOD.vertex_operator_mode(e1, n)(w).c != {}
    # an empty product is zero
    assert tiny.vertex_operator_mode(PBWVector(), -2)(w).is_zero()


def test_vertex_series_carries_the_input_flags():
    # at a low declared cutoff every term of a series equals the mode read
    # there and the series of a module declared with cutoff 8: at cutoff 2
    # the x^0 term of Y(e1(-1)|0>, x) f1(-2)|0> needs weight 3, and is kept
    for cutoff, v, w in ((4, MOD.current("e1"), MOD.current("f1")),
                         (2, MOD.current("e1"), MOD.apply_mode("f1", -2, MOD.vacuum()))):
        mod = build_module(sl2, F(2), cutoff=cutoff)
        ser = mod.vertex_series(v, w, 4)
        for (e, _k), got in ser.terms.items():
            assert got.c == mod.vertex_operator_mode(v, -e - 1)(w).c
        want = MOD.vertex_series(v, w, 4)
        assert {key: vec.c for key, vec in ser.terms.items()} == \
            {key: vec.c for key, vec in want.terms.items()}
        assert (0, 0) in ser.terms


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
    # the reader's plan is built with it, so the error comes at construction
    with pytest.raises(DomainError):
        op = MOD.vertex_operator_mode(MOD.current("e1"), F(1, 2))
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


def test_subtraction_is_one_pass_and_keeps_flags():
    v = 2 * MOD.current("e1") + F(1, 3) * MOD.current("h1")
    assert (v - v).is_zero()
    w = MOD.current("h1")
    diff = v - w
    assert diff.c == {monomial((0, -1)): 2, monomial((2, -1)): F(-2, 3)}
    assert (w - v).c == {mono: -c for mono, c in diff.c.items()}
    assert (w - w).is_zero()


def _typed(terms):
    return {mono: (c, type(c)) for mono, c in terms.items()}


def _act_through_bracket(mod, gi, m, g1, m1):
    """b_gi(m) on the one-factor monomial g1(m1)|0>, with the structure
    constant and the pairing computed through alg.bracket and alg.form."""
    alg = mod.algebra
    if m < 0 and (-m, gi) <= (-m1, g1):
        return {monomial((gi, m), (g1, m1)): 1}
    acc = {}
    if m < 0:
        acc = dict(mod._act(g1, m1, factor_code(gi, m)))
    br = alg.bracket(alg._basis_elt(gi), alg._basis_elt(g1))
    for k, ck in enumerate(br.coords):
        if ck:
            for mono2, c2 in dict(mod._act(k, m + m1, "")).items():
                acc[mono2] = acc.get(mono2, 0) + int_if_integral(ck) * c2
    if m + m1 == 0 and m:
        pair = alg.form(alg._basis_elt(gi), alg._basis_elt(g1))
        acc[""] = acc.get("", 0) + int_if_integral(m * pair * mod.level)
    return {mono: c for mono, c in acc.items() if c}


@pytest.mark.parametrize("level", [F(2), F(1, 2)], ids=["level 2", "level 1/2"])
def test_mode_action_reads_the_structure_table(level):
    sl3 = build_simple_lie("A", 2)
    mod = build_module(sl3, level, cutoff=8)
    # a monomial factor has a negative mode; m1 down to -3 keeps every
    # central term (m + m1 = 0 at m = 1, 2) and every bracket at modes
    # -5..1
    for gi in range(sl3.dim):
        for g1 in range(sl3.dim):
            for m in range(-2, 3):
                for m1 in range(-3, 0):
                    got = mod._act(gi, m, factor_code(g1, m1))
                    want = _act_through_bracket(mod, gi, m, g1, m1)
                    assert _typed(dict(got)) == _typed(want), (gi, m, g1, m1)


def _first_act(mod, known, gi, m, mono):
    """b_gi(m) on one monomial as the dict of the plain recursion that
    preceded the frozen, shared images, memoized in known."""
    key = (gi, m, mono)
    if key in known:
        return known[key]
    if not mono:
        out = {} if m >= 0 else {factor_code(gi, m): 1}
    elif m < 0 and (-m, gi) <= (-factor(mono[0])[1], factor(mono[0])[0]):
        out = {factor_code(gi, m) + mono: 1}
    else:
        (g1, m1), rest = factor(mono[0]), mono[1:]
        out = {}
        for mono2, c2 in _first_act(mod, known, gi, m, rest).items():
            accumulate(out, _first_act(mod, known, g1, m1, mono2).items(), c2)
        struct, gram = mod.algebra._tables()
        for k, ck in struct[gi][g1]:
            accumulate(out, _first_act(mod, known, k, m + m1, rest).items(), ck)
        if m + m1 == 0 and m and gram[gi][g1]:
            accumulate(out, {rest: int_if_integral(m * gram[gi][g1] * mod.level)}.items())
    known[key] = out
    return out


@pytest.mark.parametrize("rank", [1, 2], ids=["A1", "A2"])
def test_mode_action_images_match_the_flagged_recursion(rank):
    # the images match the plain recursion, past the declared cutoff too
    alg = build_simple_lie("A", rank)
    beyond = 0
    for cutoff in (2, 3, 4):
        mod = build_module(alg, F(1), cutoff=cutoff)
        known = {}
        monos = [mono for w in range(cutoff + 1) for mono in mod.basis(w)]
        for gi in range(alg.dim):
            for m in range(-3, 4):
                for mono in monos:
                    got = mod._act(gi, m, mono)
                    want = _first_act(mod, known, gi, m, mono)
                    assert _typed(dict(got)) == _typed(want), (gi, m, mono)
                    assert (got is ZERO) == (not want), (gi, m, mono)
                    beyond += bool(want) and monomial_weight(mono) - m > cutoff
    assert beyond
    with pytest.raises(TypeError):
        ZERO[()] = 1


@pytest.fixture(scope="module")
def nilpotent_modules(tmp_path_factory):
    """The modules built by one run of configs/sl2_nilpotent.json."""
    built = []
    inner = cli.build_module

    def recording(*args, **kwargs):
        built.append(inner(*args, **kwargs))
        return built[-1]

    config = pathlib.Path(__file__).resolve().parent.parent / "configs" / "sl2_nilpotent.json"
    out = tmp_path_factory.mktemp("run") / "report.json"
    with mock.patch.object(cli, "build_module", recording), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["run", str(config), "--output", str(out)]) == 0
    assert built
    return built


@pytest.fixture(scope="module")
def nilpotent_memo(nilpotent_modules):
    """Every image and bucket the memos of nilpotent_modules hold."""
    images = [(mod, img) for mod in nilpotent_modules
              for row in mod._act_cache.values() for img in row.values()]
    buckets = [(mod, bucket) for mod in nilpotent_modules
               for _ceiling, res in mod._vs_cache.values() for bucket in res.values()]
    assert images and buckets
    return images, buckets


def test_mode_action_memo_is_kept_in_rows(nilpotent_modules):
    # one row per (generator, mode), keyed by monomials
    for mod in nilpotent_modules:
        assert mod._act_cache
        for key, row in mod._act_cache.items():
            assert len(key) == 2 and all(type(k) is int for k in key), key
            assert all(type(mono) is str for mono in row), key
    # every reader hands on the image its row holds: a marker planted in
    # the row of a fresh module comes out of each
    ran = nilpotent_modules[0]
    (gi, m), row = next((key, row) for key, row in ran._act_cache.items()
                        if key[1] < 0 and row)
    mono = next(iter(row))
    mod = build_module(ran.algebra, ran.level, ran.cutoff)
    marker = ((factor_code(gi, -9), 5),)
    mod._act(gi, m, mono)
    mod._act_cache[gi, m][mono] = marker
    assert mod.apply_mode(mod.algebra._basis_elt(gi), m, PBWVector({mono: 1})).c == \
        {factor_code(gi, -9): 5}
    # Y(b(m)|0>, x) at x^0 is b(m) itself, with binomial 1
    assert mod._vs_mono(factor_code(gi, m), mono, 0)[0] is marker
    read = mod.vertex_operator_mode(PBWVector({factor_code(gi, m): 1}), -1)
    assert read(PBWVector({mono: 1})).c == {factor_code(gi, -9): 5}


def test_memo_values_are_tuples_or_lost(nilpotent_memo):
    images, buckets = nilpotent_memo
    for _mod, value in images + buckets:
        assert type(value) is tuple


def test_memo_coefficients_keep_the_scalar_rule(nilpotent_memo):
    # an int 1 and a Fraction(1) are equal, so a report that prints the
    # scalar's type reads it from the stored coefficient: no stored
    # coefficient may be an integral Fraction
    images, buckets = nilpotent_memo
    for _mod, value in images + buckets:
        for _mono, c in value:
            assert type(c) is int or (type(c) is F and c.denominator > 1), c


def _sugawara_loop(mod, n, vec):
    """L(n) vec as the normally ordered Sugawara sum
    1/(2(k + h_vee)) sum_i sum_p :u_i(p) u^i(n - p): over a basis u_i and
    its dual basis u^i, kept as the oracle of the mode of omega."""
    alg = mod.algebra
    pairs = list(zip(alg.basis(), alg.dual_basis()))
    scale = F(1) / (2 * (mod.level + alg.dual_coxeter()))
    total = PBWVector()
    for mono, coeff in vec.c.items():
        d = monomial_weight(mono)
        one = PBWVector({mono: coeff})
        acc = PBWVector()
        for j in range(n - d, d + 1):
            p, q = j, n - j
            for ui, udi in pairs:
                if p <= q:
                    inner, im, outer, om = udi, q, ui, p
                else:
                    inner, im, outer, om = ui, p, udi, q
                tmp = mod.apply_mode(inner, im, one)
                if tmp.is_zero():
                    continue
                acc = acc + mod.apply_mode(outer, om, tmp)
        total = total + scale * acc
    return total


def _canonical_vector(vec):
    return [(m, type(c), c) for m, c in vec.sorted_items()]


def test_sugawara_images_match_the_vector_loop():
    small = build_module(sl2, F(2), cutoff=4)
    monos = [mono for w in range(5) for mono in small.basis(w)]
    scalars = [1, -2, F(1, 3), F(4), Cyc.of(1), Cyc.zeta(3, 1), 2 * Cyc.t_power(1)]
    vectors = [PBWVector({mono: 1}) for mono in monos]
    for i in range(0, len(monos) - 2, 3):
        vectors.append(PBWVector({monos[i + j]: scalars[(i + j) % len(scalars)]
                                  for j in range(3)}))
    vectors.append(PBWVector())
    assert any(type(c) is Cyc for v in vectors for c in v.c.values())
    for n in range(-1, 3):
        ln = small.sugawara_mode(n)
        for v in vectors:
            got = ln(v)
            assert _canonical_vector(got) == \
                _canonical_vector(_sugawara_loop(small, n, v)), (n, v)
    # L(-1) of a monomial at the cutoff raises it past the cutoff, exactly
    top = vectors[len(monos) - 1]
    assert _canonical_vector(small.sugawara_mode(-1)(top)) == \
        _canonical_vector(MOD.sugawara_mode(-1)(top)) != []


def test_module_limits_are_those_of_the_monomial_codec():
    # the generator indices of a module must encode: sl_32 does, and an
    # algebra with more generators is refused before anything is built
    assert build_simple_lie("A", 31).dim <= MAX_GENERATORS
    too_big = mock.Mock(dim=MAX_GENERATORS + 1)
    with pytest.raises(DomainError, match="generators"):
        build_module(too_big, F(2), cutoff=2)
    # a state of weight MAX_WEIGHT is built; one factor deeper is refused
    module = build_module(sl2, F(2), cutoff=2)
    deepest = module.apply_mode("e1", -MAX_WEIGHT, module.vacuum())
    assert deepest.c == {factor_code(sl2.index["e1"], -MAX_WEIGHT): 1}
    with pytest.raises(DomainError, match="mode"):
        module.apply_mode("e1", -MAX_WEIGHT - 1, module.vacuum())
