import gc
import json
import pathlib
import weakref
from fractions import Fraction as F
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import event, given, settings, strategies as st

from voatwist.cli import build_chain, parse_config
from voatwist.delta import delta_apply_series
from voatwist.errors import NeedsFieldExtension, NotFixed
from voatwist.fock import InducedModule, PBWVector, accumulate, build_module
from voatwist.lie import build_simple_lie, diagram_automorphism
from voatwist.scalars import Cyc
from voatwist.series import LogSeries, branch_shift, monomial, series_eq
from voatwist.twist import (
    ModuleMap,
    TwistedModule,
    apply_lie_matrix,
    apply_table_entry,
    functor_on_map,
    make_twisted,
    mode_candidates,
    mode_table_entry,
    transport_tau,
    untwisted_as_twisted,
)
from voatwist.verify import basis_states, chain_log_bound

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=8)
TW = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 2)})))


def state(name, *modes):
    v = MOD.vacuum()
    for m in reversed(modes):
        v = MOD.apply_mode(name, m, v)
    return v


def test_semisimple_modes_relabel():
    # the twisted raising mode at m acts like the untwisted one at m - 1
    for m in (-2, -1, 0, 1):
        op = TW.gen_mode("e1", m)
        for w in (MOD.vacuum(), state("f1", -1), state("h1", -1)):
            want = MOD.apply_mode("e1", m - 1, w)
            assert (op(w) - want).is_zero()


def test_cartan_zero_mode_picks_up_scalar():
    op = TW.gen_mode("h1", 0)
    vac = MOD.vacuum()
    assert (op(vac) + 2 * vac).is_zero()
    w = state("e1", -1)
    assert (op(w) - (MOD.apply_mode("h1", 0, w) - 2 * w)).is_zero()


def test_mode_table_matches_series_route():
    for name in ("e1", "f1", "h1"):
        for m in (-1, 0, 1):
            ops, scalar = mode_table_entry(TW, sl2.generator(name), F(m))
            for w in (MOD.vacuum(), state("e1", -1), state("f1", -2)):
                via_table = apply_table_entry(MOD, (ops, scalar), w)
                via_series = TW.gen_mode(name, m)(w)
                assert (via_table - via_series).is_zero()


def test_regraded_weights():
    assert TW.weight_of("") == F(1, 2)
    name_idx = {n: i for i, n in enumerate(sl2.names)}
    e, f, h = name_idx["e1"], name_idx["f1"], name_idx["h1"]
    assert TW.weight_of(monomial((e, -1))) == F(1, 2)
    assert TW.weight_of(monomial((e, -1), (e, -1))) == F(1, 2)
    assert TW.weight_of(monomial((f, -1))) == F(5, 2)
    assert TW.weight_of(monomial((h, -1))) == F(3, 2)
    assert TW.class_of(monomial((e, -1))) == 1


@pytest.mark.parametrize("coeff,kind", [(F(1, 2), int), (F(1, 3), F)],
                         ids=["h1=1/2", "h1=1/3"])
def test_grading_follows_the_scalar_rule(coeff, kind):
    # integral class offsets are ints, so modes built from them are too
    tw = make_twisted(MOD, MOD.current(sl2.element({"h1": coeff})))
    offsets, zero_mode, _half_kappa = tw.grading()
    assert [type(lam) for lam in offsets] == [kind, kind, int]
    assert type(zero_mode) is int
    assert type(tw.class_of(monomial((0, -1), (0, -1)))) is kind
    order = tw.branch_order()
    assert [type(m) for m in mode_candidates(1, order)] == \
        [int if t % order == 0 else F for t in range(-order, order + 1)]


def test_branch_order_counts_eigen_denominators():
    assert TW.branch_order() == 1
    third = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 3)})))
    assert third.branch_order() == 3


def test_fractional_twist_equivariance():
    # one branch rotation of the twisted operator equals twisting the
    # argument by the attached order-three automorphism
    third = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 3)})))
    v = MOD.current("e1")
    w = state("f1", -1)
    ser = third.vertex_series(v, w, ceiling=F(2))
    rotated = branch_shift(ser, 1, third.branch_order())
    gv = third.automorphism_apply(v)
    want = third.vertex_series(gv, w, ceiling=F(2))
    assert series_eq(rotated, want) is None


def test_unipotent_equivariance_in_t_form():
    # for a unipotent twist the branch move inserts the formal T symbol
    uni = make_twisted(MOD, MOD.current("e1"))
    v = MOD.current("f1")
    ser = uni.vertex_series(v, MOD.vacuum(), ceiling=F(1))
    rotated = branch_shift(ser, 1, 1)
    gv = uni.automorphism_apply(v)
    want = uni.vertex_series(gv, MOD.vacuum(), ceiling=F(1))
    assert series_eq(rotated, want) is None


def test_unfixed_current_is_rejected():
    third = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 3)})))
    with pytest.raises(NotFixed):
        make_twisted(third, MOD.current("e1"))


def test_fixedness_is_tested_before_the_jordan_decomposition():
    # e1 - f1 needs a field extension to split, and the h1=1/4 chain moves
    # e1 to -e1; make_twisted rejects it as not fixed before it splits it
    quarter = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 4)})))
    u = MOD.current("e1") - MOD.current("f1")
    with pytest.raises(NeedsFieldExtension):
        make_twisted(MOD, u)
    with pytest.raises(NotFixed):
        make_twisted(quarter, u)


def test_chain_on_fixed_current_extends():
    # h is fixed by any inner torus twist, so chaining must succeed
    third = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 3)})))
    again = make_twisted(third, MOD.current(sl2.element({"h1": F(1, 6)})))
    assert len(again.steps) == 2
    # the second step's ad eigenvalues are -1/3, 0, 1/3, so the lattice
    # denominator stays 3 rather than picking up the coefficient's 6
    assert again.branch_order() == 3
    quarter = make_twisted(third, MOD.current(sl2.element({"h1": F(1, 4)})))
    assert quarter.branch_order() == 6


def test_branch_order_counts_the_diagram_factor():
    # the flip alone has integral eigenvalue data but order 2, so its
    # twisted modes live on the 1/2 lattice
    sl3 = build_simple_lie("A", 2)
    flip = diagram_automorphism(sl3, [2, 1])
    assert TwistedModule(build_module(sl3, F(1), cutoff=2), (), flip).branch_order() == 2


def test_transport_by_diagram_flip():
    sl3 = build_simple_lie("A", 2)
    mod3 = build_module(sl3, F(2), cutoff=4)
    tw3 = make_twisted(mod3, mod3.current(sl3.element({"h1": F(1, 2)})))
    tau = diagram_automorphism(sl3, [2, 1])
    moved = transport_tau(tw3, tau)
    assert moved.conjugator is not None
    # the chain itself is kept; the flip enters through the conjugator,
    # so transforming v through the moved chain matches feeding tau^(-1) v
    # to the original one
    v = mod3.current("e1")
    pre = apply_lie_matrix(mod3, tau.inverse().matrix, v)
    assert series_eq(moved.chain_transform(v), tw3.chain_transform(pre)) is None


def _relabeling_pair():
    """A2, level 1, cutoff 7, the flip tau: the chain [u1, tau, u2] and the
    chain [tau u1, u2], with u1 = h1/3 + 2 h2/3 and u2 = h1/2."""
    sl3 = build_simple_lie("A", 2)
    mod3 = build_module(sl3, F(1), cutoff=7)
    tau = diagram_automorphism(sl3, [2, 1])
    u1 = mod3.current(sl3.element({"h1": F(1, 3), "h2": F(2, 3)}))
    u2 = mod3.current(sl3.element({"h1": F(1, 2)}))
    chain_a = make_twisted(transport_tau(make_twisted(mod3, u1), tau), u2)
    chain_b = make_twisted(make_twisted(mod3, apply_lie_matrix(mod3, tau.matrix, u1)), u2)
    return mod3, tau, chain_a, chain_b


def test_a_transported_chain_is_its_relabeled_chain():
    # the transport is an isomorphism through tau acting on W:
    # Y_B(v, x) tau w = tau(Y_A(v, x) w), series by series and mode by mode
    mod3, tau, chain_a, chain_b = _relabeling_pair()

    def moved(vec):
        return apply_lie_matrix(mod3, tau.matrix, vec)

    targets = basis_states(mod3, 1)
    states = [v for v, _label in basis_states(mod3, 2) if v.depth() >= 1]
    pairs = [(v, w) for v in states for w, _label in targets]
    assert len(pairs) == 468
    for v, w in pairs:
        want = chain_a.vertex_series(v, w, 1)
        want = LogSeries({key: moved(vec) for key, vec in want.terms.items()})
        got = chain_b.vertex_series(v, moved(w), 1)
        assert series_eq(got, want) is None, (v, w)
    nonzero = 0
    for name in mod3.algebra.names:
        for m in mode_candidates(1, 6):
            op_a, op_b = chain_a.gen_mode(name, m), chain_b.gen_mode(name, m)
            for w, _label in targets:
                got = op_b(moved(w))
                assert (got - moved(op_a(w))).is_zero(), (name, m, w)
                nonzero += not got.is_zero()
    assert nonzero == 106
    # negative control: the identity in place of tau
    apart = sum(series_eq(chain_b.vertex_series(v, w, 1), chain_a.vertex_series(v, w, 1))
                is not None for v, w in pairs if v.depth() == 1)
    assert apart == 66


def test_functor_transports_scalar_maps():
    # a scalar map commutes with every vertex operator, so no probe fails
    assert functor_on_map(TW, [ModuleMap(default=F(3))], probe_weight=2) == [None]


def test_functor_rejects_skew_map():
    skew = ModuleMap(weight_scalars={2: F(5)})
    [key] = functor_on_map(TW, [skew], probe_weight=2)
    assert isinstance(key, tuple) and len(key) == 2
    # the maps are judged independently: a passing map beside the skewed
    # one still passes, and the skewed one fails at the same series key
    assert functor_on_map(TW, [ModuleMap(), skew], probe_weight=2) == [None, key]


def test_module_map_scalars_follow_the_scalar_rule():
    # an integral scalar is stored as an int, so apply multiplies no Fraction
    # into an integral coefficient
    m = ModuleMap(default=F(3), weight_scalars={2: F(5), 1: F(1, 2)})
    assert (m.default, type(m.default)) == (3, int)
    assert [(w, c, type(c)) for w, c in m.weight_scalars.items()] == [
        (2, 5, int), (1, F(1, 2), F)]
    assert type(ModuleMap().default) is int
    e, f = sl2.index["e1"], sl2.index["f1"]
    out = m.apply(PBWVector({monomial((e, -1), (f, -1)): 2, monomial((e, -1)): 4, monomial((e, -3)): 1}))
    assert [(c, type(c)) for c in out.c.values()] == [(10, int), (2, int), (3, int)]


def test_untwisted_wrapper_is_plain_module():
    plain = untwisted_as_twisted(MOD)
    assert plain.branch_order() == 1
    assert plain.weight_of("") == 0
    v = MOD.current("h1")
    assert (plain.gen_mode("h1", -1)(MOD.vacuum()) - v).is_zero()


def _oracle_chain(module, steps):
    tw = module
    for coords in steps:
        tw = make_twisted(tw, module.current(sl2.element(coords)))
    return tw


ORACLE_CHAINS = {
    "h1=1/2": [{"h1": F(1, 2)}],
    "e1": [{"e1": F(1)}],
    "h1=1/3": [{"h1": F(1, 3)}],
    "h1=1/2,e1": [{"h1": F(1, 2)}, {"e1": F(1)}],
}


@pytest.mark.parametrize("chain", sorted(ORACLE_CHAINS))
def test_twisted_modes_match_series_coefficients(chain):
    # the coefficient route against the whole series of a separate module
    tw = _oracle_chain(build_module(sl2, F(2), cutoff=6), ORACLE_CHAINS[chain])
    oracle = _oracle_chain(build_module(sl2, F(2), cutoff=6), ORACLE_CHAINS[chain])
    mod = tw.base
    states = [mod.current(n) for n in sl2.names] + [mod.conformal_vector()]
    targets = [w for w, _label in basis_states(mod, 2)]
    for v in states:
        for m in mode_candidates(2, tw.branch_order()):
            e = -m - 1
            for l in range(chain_log_bound(tw) + 2):
                op = tw.mode(v, m, l)
                for w in targets:
                    ser = oracle.vertex_series(v, w, e)
                    want = ser.terms.get((e, l), PBWVector())
                    assert (op(w) - want).is_zero()


def test_modes_build_no_series(monkeypatch):
    def whole_series(*_args, **_kwargs):
        raise AssertionError("a mode read a whole series")

    tw = _oracle_chain(build_module(sl2, F(2), cutoff=6),
                       ORACLE_CHAINS["h1=1/2,e1"])
    mod = tw.base
    monkeypatch.setattr(InducedModule, "vertex_series", whole_series)
    omega = mod.conformal_vector()
    for w, _label in basis_states(mod, 2):
        for m in (-1, 0, 1):
            tw.gen_mode("e1", m, 1)(w)
            tw.mode(omega, m, 2)(w)
            mod.vertex_operator_mode(omega, m)(w)


# -- linearity: chain images per monomial, mode images per target monomial --


def _direct_chain_transform(tw, v):
    """The chain image of v by the whole-vector pipeline, with no memo."""
    if tw.conjugator is not None:
        v = apply_lie_matrix(tw.base, tw.conjugator.inverse().matrix, v)
    ser = LogSeries({(0, 0): v})
    for step in reversed(tw.steps):
        ser = delta_apply_series(step, ser)
    return ser


def assert_same_terms(got, want):
    """The same keys and values, term by term."""
    assert set(got.terms) == set(want.terms)
    for key, vec in got.terms.items():
        assert (vec - want.terms[key]).is_zero(), key


def _oracle_mode(tw, v, m, l, w):
    """The x^(-m-1) log^l coefficient of Y_new(v, x) w, read off whole base
    series of the directly transformed state."""
    e = -F(m) - 1
    out = PBWVector()
    for (e1, k1), vec1 in _direct_chain_transform(tw, v).terms.items():
        if k1 == l and (e - e1).denominator == 1:
            ser = tw.base.vertex_series(vec1, w, e - e1)
            out = out + ser.terms.get((e - e1, 0), PBWVector())
    return out


def _transported_chain(module):
    sl3 = module.algebra
    tw = make_twisted(module, module.current(sl3.element({"h1": F(1, 2)})))
    return transport_tau(tw, diagram_automorphism(sl3, [2, 1]))


IMAGE_CHAINS = sorted(ORACLE_CHAINS) + ["h1=1/2 moved by the A2 flip"]


@lru_cache(maxsize=None)
def _image_chain(name):
    """(twisted module, oracle twin on a separate base declared with a
    cutoff 4 higher) for a chain name."""
    if name in ORACLE_CHAINS:
        return tuple(_oracle_chain(build_module(sl2, F(2), cutoff=cutoff),
                                   ORACLE_CHAINS[name]) for cutoff in (5, 9))
    sl3 = build_simple_lie("A", 2)
    return tuple(_transported_chain(build_module(sl3, F(2), cutoff=cutoff))
                 for cutoff in (3, 7))


nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
scalars_mixed = st.one_of(
    nonzero,
    st.builds(F, nonzero, st.integers(2, 5)),
    st.builds(lambda k, c: Cyc.zeta(3, k) * c, st.integers(0, 2),
              st.integers(1, 3)),
)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_mode_images_match_oracle_coefficients(data):
    tw, oracle = _image_chain(data.draw(st.sampled_from(IMAGE_CHAINS)))
    mod = tw.base
    states = ([mod.current(n) for n in tw.algebra.names]
              + [mod.conformal_vector()])
    v = data.draw(st.sampled_from(states))
    monos = [mono for w in range(3) for mono in mod.basis(w)]
    targets = [PBWVector(c) for c in data.draw(st.lists(
        st.dictionaries(st.sampled_from(monos), scalars_mixed,
                        min_size=1, max_size=4),
        min_size=1, max_size=3))]
    nonzero_reads = 0
    for m in mode_candidates(1, tw.branch_order()):
        for l in range(chain_log_bound(tw) + 2):
            # one operator for every target, so later targets read the
            # images that earlier ones left
            op = tw.mode(v, m, l)
            for w in targets:
                got = op(w)
                # the A2 chain reads weight 4 at cutoff 3, where its oracle
                # is inside its cutoff
                assert (got - _oracle_mode(oracle, v, m, l, w)).is_zero()
                nonzero_reads += bool(got.c)
    event("some image nonzero" if nonzero_reads else "every image zero")


@pytest.mark.parametrize("chain", IMAGE_CHAINS)
def test_chain_transform_sums_monomial_images(chain):
    tw, _oracle = _image_chain(chain)
    mod = tw.base
    names = tw.algebra.names
    inputs = [mod.current(n) for n in names] + [mod.conformal_vector()]
    inputs.append(F(1, 2) * mod.current(names[0]) - 3 * mod.current(names[-1]))
    # the automorphism image carries Cyc coefficients
    inputs.append(tw.automorphism_apply(mod.current(names[0])))
    for v in inputs:
        got = tw.chain_transform(v)
        want = _direct_chain_transform(tw, v)
        assert_same_terms(got, want)
    assert tw.chain_transform(PBWVector()).is_zero()


def test_twisted_module_with_chain_memo_is_collected():
    mod = build_module(sl2, F(2), cutoff=4)
    tw = make_twisted(mod, mod.current(sl2.element({"h1": F(1, 2)})))
    tw.gen_mode("e1", 0)(mod.current("f1"))
    tw.vertex_series(mod.conformal_vector(), mod.vacuum(), 1)
    assert tw._chain_image_cache
    ref = weakref.ref(tw)
    del tw
    gc.collect()
    assert ref() is None


def _stored_coefficient_sum(tw, v, m, l, w):
    """The (m, l) mode of v on w summed from the chain image's terms with
    their coefficients as stored."""
    e = -F(m) - 1
    out = {}
    for (e1, k1), vec1 in tw.chain_transform(v).terms.items():
        if k1 == l and (e - e1).denominator == 1:
            coeff = tw.base.vertex_operator_mode(vec1, -(e - e1) - 1)(w)
            accumulate(out, coeff.c.items())
    return PBWVector(out)


@pytest.mark.parametrize("chain", ["h1=1/2", "e1", "h1=1/3"])
def test_mode_outputs_match_the_stored_chain_coefficients(chain):
    # the chain image stores no integral Fraction, so the operator reads
    # its terms as stored
    tw = _oracle_chain(build_module(sl2, F(2), cutoff=4), ORACLE_CHAINS[chain])
    mod = tw.base
    states = [mod.current(n) for n in sl2.names] + [mod.conformal_vector()]
    targets = [w for w, _label in basis_states(mod, 2)]
    stored_fractions = 0
    for v in states:
        stored_fractions += sum(type(c) is F and c.denominator == 1
                                for vec in tw.chain_transform(v).terms.values()
                                for c in vec.c.values())
        for m in mode_candidates(2, tw.branch_order()):
            for l in range(chain_log_bound(tw) + 2):
                op = tw.mode(v, m, l)
                for w in targets:
                    got = op(w)
                    want = _stored_coefficient_sum(tw, v, m, l, w)
                    assert (got - want).is_zero(), (v, m, l, w)
    assert stored_fractions == 0


# -- the attached automorphism: the product of the steps' factors ----------


def _merged_matrix(tw):
    """The attached automorphism in its merged form: the conjugator around
    the diagram factor after exp(-2 pi i ad(sum_j s_j + sum_j n_j)), with one
    ad_eigendata for the summed semisimple parts."""
    alg, order, conj = tw.algebra, tw.branch_order(), tw.conjugator
    semi, nil = alg.zero(), alg.zero()
    for step in tw.steps:
        semi, nil = semi + step.s, nil + step.n
    eig = None if semi.is_zero() else alg.ad_eigendata(semi)
    cols = []
    for gi in range(alg.dim):
        elt = alg._basis_elt(gi)
        if conj is not None:
            elt = conj.inverse()(elt)
        pieces = [(F(1), elt)] if eig is None else [
            (Cyc.zeta(order, -lam * order), comp)
            for lam, comp in eig.decompose(elt).items()]
        col = [F(0)] * alg.dim
        for scale, comp in pieces:
            k = 0
            while not comp.is_zero():
                image = comp if tw.diagram is None else tw.diagram(comp)
                image = image if conj is None else conj(image)
                fac = scale if nil.is_zero() else \
                    scale * (Cyc.t_power(k) * F((-1) ** k, factorial(k)))
                for gj, c in enumerate(image.coords):
                    if c:
                        col[gj] = col[gj] + fac * c
                if nil.is_zero():
                    break
                comp, k = alg.bracket(nil, comp), k + 1
        cols.append(col)
    return [[cols[src][dst] for src in range(alg.dim)] for dst in range(alg.dim)]


TEST_CONFIGS = pathlib.Path(__file__).resolve().parent / "configs"


def _config_chain(stem):
    path = TEST_CONFIGS / f"{stem}.json"
    return build_chain(parse_config(json.loads(path.read_text(encoding="utf-8")))).twisted


MERGED_CHAINS = {
    **{name: lambda name=name: _oracle_chain(MOD, steps)
       for name, steps in ORACLE_CHAINS.items()},
    "h1=1/3,h1=1/6": lambda: _oracle_chain(MOD, [{"h1": F(1, 3)}, {"h1": F(1, 6)}]),
    "a2_two_inner_steps": lambda: _config_chain("a2_two_inner_steps"),
    "A2 h1=1/2 then the flip": lambda: _transported_chain(
        build_module(build_simple_lie("A", 2), F(2), cutoff=3)),
    "a2_diagram": lambda: _config_chain("a2_diagram"),
}


@pytest.mark.parametrize("name", sorted(MERGED_CHAINS))
def test_the_product_of_the_steps_matches_the_merged_form(name):
    # with one semisimple and one nilpotent part overall, the steps' product
    # and the exp of their summed currents agree entry by entry, in type too
    tw = MERGED_CHAINS[name]()
    got, want = tw.automorphism_matrix(), _merged_matrix(tw)
    assert got == want
    assert [[type(c) for c in row] for row in got] == \
        [[type(c) for c in row] for row in want]


def test_cancelling_semisimple_steps_give_the_identity_in_cyc_entries():
    # the merged form saw no semisimple part and gave Fractions; the
    # product multiplies roots of unity back to 1
    tw = _oracle_chain(MOD, [{"h1": F(1, 2)}, {"h1": F(-1, 2)}])
    got = tw.automorphism_matrix()
    assert got == _merged_matrix(tw)
    assert got == [[F(int(i == j)) for j in range(3)] for i in range(3)]
    assert any(isinstance(c, Cyc) for row in got for c in row)
