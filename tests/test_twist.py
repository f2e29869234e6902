from fractions import Fraction as F

import pytest

from voatwist.errors import NotFixed, NotIntertwining
from voatwist.fock import InducedModule, PBWVector, build_module
from voatwist.lie import build_simple_lie, diagram_automorphism
from voatwist.series import branch_shift, series_eq
from voatwist.twist import (
    ModuleMap,
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
    assert TW.weight_of(()) == F(1, 2)
    name_idx = {n: i for i, n in enumerate(sl2.names)}
    e, f, h = name_idx["e1"], name_idx["f1"], name_idx["h1"]
    assert TW.weight_of(((e, -1),)) == F(1, 2)
    assert TW.weight_of(((e, -1), (e, -1))) == F(1, 2)
    assert TW.weight_of(((f, -1),)) == F(5, 2)
    assert TW.weight_of(((h, -1),)) == F(3, 2)
    assert TW.class_of(((e, -1),)) == 1


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


def test_functor_transports_scalar_maps():
    # a scalar map commutes with every vertex operator, so no probe fails
    functor_on_map(TW, ModuleMap(default=F(3)), probe_weight=2)


def test_functor_rejects_skew_map():
    skew = ModuleMap(weight_scalars={2: F(5)})
    with pytest.raises(NotIntertwining):
        functor_on_map(TW, skew, probe_weight=2)


def test_untwisted_wrapper_is_plain_module():
    plain = untwisted_as_twisted(MOD)
    assert plain.branch_order() == 1
    assert plain.weight_of(()) == 0
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
