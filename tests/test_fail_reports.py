"""Recorded non-pass reports of every check.

Each driver below pushes one check into one of its fail or uncertifiable
outcomes, mostly by patching a name that verify.py imported so that one
side of an identity goes wrong.  Together they reach every witness shape
of every check: every field name, every reason string, and the case count
at the moment of failure.  The full ``to_dict()`` of each report is
compared with the recording, so a change to how the checks loop, count or
format witnesses has to reproduce these reports exactly.

Re-record (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_fail_reports.py --record
"""

import contextlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

from voatwist import verify
from voatwist.delta import delta_apply, make_delta
from voatwist.errors import NotIntertwining
from voatwist.fock import PBWVector, build_module
from voatwist.lie import build_simple_lie
from voatwist.series import LogSeries, monomial, series_combine, series_eq, series_scale
from voatwist.twist import (
    TwistedModule,
    make_twisted,
    mode_table_entry,
    untwisted_as_twisted,
)
from voatwist.verify import basis_states

RECORDING = Path(__file__).parent / "data" / "fail_reports.json"

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=6)
ARGS = [(MOD.current("e1"), "e1(-1) |0>")]
TARGETS = basis_states(MOD, 1)
STATES = basis_states(MOD, 2)


def current(coords):
    return MOD.current(sl2.element(coords))


def twisted(coords):
    return make_twisted(MOD, current(coords))


def is_vacuum(v):
    return list(v.c) == [""]


def legacy_make_delta(module, u):
    return make_delta(module, u, True)


# -- shift-finiteness --------------------------------------------------------


def finiteness_log_bound():
    # with a nilpotency index of 1 no log power is allowed at all
    with mock.patch.object(verify, "_nilpotency_index", lambda alg, n: 1):
        return verify.check_shift_finiteness(MOD, current({"e1": 1}), STATES)


def finiteness_outweighs():
    def raised(delta, v):
        ser = delta_apply(delta, v)
        if is_vacuum(v):
            return ser
        heavy = MOD.apply_mode(sl2.generator("e1"), -1, v)
        return series_combine(ser, LogSeries({(F(0), 0): heavy}))

    with mock.patch.object(verify, "delta_apply", raised):
        return verify.check_shift_finiteness(MOD, current({"h1": F(1, 2)}), STATES)


def finiteness_lattice():
    def off_lattice(delta, v):
        ser = delta_apply(delta, v)
        return ser if is_vacuum(v) else series_scale(ser, eshift=F(1, 5))

    with mock.patch.object(verify, "delta_apply", off_lattice):
        return verify.check_shift_finiteness(MOD, current({"h1": F(1, 2)}), STATES)


# -- shift-conjugation and the brackets --------------------------------------


def conjugation_legacy(coords, args=ARGS):
    def run():
        return verify.check_shift_conjugation(MOD, current(coords), args,
                                              TARGETS, inner_ceiling=2,
                                              legacy=True)
    return run


def conjugation_legacy_target_shift():
    # a legacy operator on both sides first fails at log power 0: both sides
    # then carry its x^(n(0)) factor, so higher log powers agree wherever
    # log power 0 does; shifting only the targets with it breaks that
    legacy = make_delta(MOD, current({"e1": 1}), True)
    targets = [w for w, _label in TARGETS]

    def shift(delta, v):
        return delta_apply(legacy if any(v is w for w in targets) else delta, v)

    with mock.patch.object(verify, "delta_apply", shift):
        return verify.check_shift_conjugation(MOD, current({"e1": 1}), ARGS,
                                              TARGETS, inner_ceiling=2)


FRACTION_ARGS = [(F(1, 2) * MOD.current("e1") - F(2, 3) * MOD.current("h1"),
                  "(1/2) e1(-1) |0> + (-2/3) h1(-1) |0>")]


def bracket(check, coords):
    def run():
        with mock.patch.object(verify, "make_delta", legacy_make_delta):
            return check(MOD, current(coords), STATES)
    return run


# -- group laws and additivity -----------------------------------------------


def identity_series(delta, ser):
    return ser


def group_laws_inverse():
    with mock.patch.object(verify, "delta_apply_series", identity_series):
        return verify.check_group_laws(MOD, current({"h1": F(1, 2)}), STATES)


def additivity_order():
    with mock.patch.object(verify, "delta_apply_series", identity_series):
        return verify.check_additivity(MOD, current({}), current({"e1": 1}),
                                       STATES)


# -- mode tables and commutators ---------------------------------------------


def zero_table(module, entry, vec):
    return PBWVector()


def mode_tables_table():
    with mock.patch.object(verify, "apply_table_entry", zero_table):
        return verify.check_mode_tables(twisted({"h1": F(1, 2)}), mode_span=1,
                                        weight=1)


def mode_tables_relabeling():
    # a zero-coefficient operator leaves the table's action unchanged, so
    # only the recomputed relabeling formula can see it
    def padded(tw, b, m, l=0):
        ops, scalar = mode_table_entry(tw, b, m, l)
        ops = dict(ops)
        ops.setdefault((0, 7), 0)
        return ops, scalar

    with mock.patch.object(verify, "mode_table_entry", padded):
        return verify.check_mode_tables(twisted({"h1": F(1, 2)}), mode_span=1,
                                        weight=1)


def commutators_fail():
    with mock.patch.object(verify, "apply_table_entry", zero_table):
        return verify.check_twisted_commutators(
            twisted({"h1": F(1, 2)}), pairs=[("e1", "f1")], mode_span=1,
            weight=1)


def commutators_uncertifiable():
    # h1 + e1 is semisimple off the Cartan, so f1 is no eigenvector
    return verify.check_twisted_commutators(twisted({"h1": 1, "e1": 1}),
                                            mode_span=1, weight=1)


def blocked_second_pair(patch_table):
    # h1, the second pair's generator, reads as a non-eigenvector in the
    # class offsets; a failure in the first pair has to win over that verdict
    def run():
        tw = twisted({"h1": F(1, 2)})
        offsets, *rest = tw.grading()
        blocked = [None if name == "h1" else lam for name, lam in zip(sl2.names, offsets)]
        with contextlib.ExitStack() as stack:
            stack.enter_context(
                mock.patch.object(tw, "grading", lambda: (blocked, *rest)))
            if patch_table:
                stack.enter_context(
                    mock.patch.object(verify, "apply_table_entry", zero_table))
            return verify.check_twisted_commutators(
                tw, pairs=[("e1", "f1"), ("h1", "h1")], mode_span=1, weight=1)
    return run


# -- the conformal regrade ---------------------------------------------------


def conformal_unshifted():
    tw = twisted({"h1": F(1, 2)})
    return verify.check_conformal_shift(tw, tw, weight=2)


def conformal_log_admixture():
    prev = untwisted_as_twisted(MOD)
    new = twisted({"h1": F(1, 2)})
    real = new.mode

    def mode(v, m, l=0):
        if l == 0:
            return real(v, m)
        return lambda w: PBWVector() if is_vacuum(w) else w

    with mock.patch.object(new, "mode", mode):
        return verify.check_conformal_shift(prev, new, weight=2)


def regraded_wrong():
    e1 = sl2.names.index("e1")
    good = monomial((e1, -1))
    return verify.check_regraded_weights(twisted({"h1": F(1, 2)}),
                                         [(good, F(1, 2)), (good, F(1))])


# -- grading restriction and zero-mode nilpotency ----------------------------


def grading(coords, coset_classes=True):
    def run():
        return verify.check_grading_restriction(twisted(coords), coset_classes)
    return run


def nilpotency(b):
    def run():
        return verify.check_zero_mode_nilpotency(twisted({"h1": F(1, 2)}), b,
                                                 weight=2)
    return run


# -- twisted-module axioms ---------------------------------------------------


def axioms(tw):
    return verify.check_twisted_axioms(tw, ARGS, TARGETS, ceiling=2)


def axioms_vacuum():
    def doubled(a, b):
        return series_eq(series_scale(a, scalar=2), b)

    with mock.patch.object(verify, "series_eq", doubled):
        return axioms(twisted({"h1": F(1, 2)}))


def axioms_derivative():
    real = verify.series_derivative
    with mock.patch.object(verify, "series_derivative",
                           lambda a: series_scale(real(a), scalar=2)):
        return axioms(twisted({"h1": F(1, 2)}))


def axioms_lattice():
    tw = twisted({"h1": F(1, 2)})
    real = tw.vertex_series

    def vertex_series(v, w, ceiling):
        ser = real(v, w, ceiling)
        return ser if is_vacuum(v) else series_scale(ser, eshift=F(1, 5))

    with mock.patch.object(tw, "vertex_series", vertex_series):
        return axioms(tw)


# -- equivariance and functor transport --------------------------------------


def equivariance_forgotten_automorphism():
    tw = twisted({"h1": F(1, 3)})
    identity = [[F(int(i == j)) for j in range(sl2.dim)] for i in range(sl2.dim)]
    with mock.patch.object(tw, "automorphism_matrix", lambda: identity):
        return verify.check_equivariance(tw)


def transport_maps(results):
    def run():
        with mock.patch.object(verify, "functor_on_map",
                               lambda tw, maps, **kw: list(results)):
            return verify.check_functor_transport(MOD, current({"h1": F(1, 2)}),
                                                  probe_weight=1)
    return run


def transport_round_trip():
    # the way back doubles the inverse current, so it overshoots
    def overshoot(target, u):
        if isinstance(target, TwistedModule):
            u = F(2) * u
        return make_twisted(target, u)

    with mock.patch.object(verify, "make_twisted", overshoot):
        return verify.check_functor_transport(MOD, current({"h1": F(1, 2)}),
                                              probe_weight=1)


DRIVERS = {
    "shift-finiteness/log-bound": finiteness_log_bound,
    "shift-finiteness/outweighs": finiteness_outweighs,
    "shift-finiteness/lattice": finiteness_lattice,
    "shift-conjugation/legacy": conjugation_legacy({"h1": F(1, 2)}),
    "shift-conjugation/legacy-thirds": conjugation_legacy({"h1": F(1, 3)}),
    "shift-conjugation/legacy-fraction-argument": conjugation_legacy(
        {"h1": F(1, 2)}, FRACTION_ARGS),
    "shift-conjugation/legacy-target-shift": conjugation_legacy_target_shift,
    "weight-bracket/semisimple": bracket(verify.check_weight_bracket,
                                         {"h1": F(1, 2)}),
    "weight-bracket/nilpotent": bracket(verify.check_weight_bracket, {"e1": 1}),
    "translation-bracket/semisimple": bracket(verify.check_translation_bracket,
                                              {"h1": F(1, 2)}),
    "translation-bracket/nilpotent": bracket(verify.check_translation_bracket,
                                             {"e1": 1}),
    "group-laws/inverse": group_laws_inverse,
    "shift-additivity/order": additivity_order,
    "mode-tables/table": mode_tables_table,
    "mode-tables/relabeling": mode_tables_relabeling,
    "twisted-commutators/fail": commutators_fail,
    "twisted-commutators/uncertifiable": commutators_uncertifiable,
    "twisted-commutators/uncertifiable-after-pass": blocked_second_pair(False),
    "twisted-commutators/fail-before-uncertifiable": blocked_second_pair(True),
    "conformal-shift/weight-mode": conformal_unshifted,
    "conformal-shift/log-admixture": conformal_log_admixture,
    "regraded-weights/wrong": regraded_wrong,
    "grading-restriction/integer-shift": grading({"h1": F(1, 2)}),
    "grading-restriction/fractional-shift": grading({"h1": F(3, 4)}),
    "grading-restriction/not-eigenvector": grading({"h1": 1, "e1": 1}),
    "grading-restriction/exact-classes": grading({"h1": 1}, False),
    "zero-mode-nilpotency/fail": nilpotency("h1"),
    "zero-mode-nilpotency/uncertifiable": nilpotency("e1"),
    "twisted-axioms/vacuum": axioms_vacuum,
    "twisted-axioms/derivative": axioms_derivative,
    "twisted-axioms/lattice": axioms_lattice,
    "equivariance/forgotten-automorphism": equivariance_forgotten_automorphism,
    "functor-transport/rejected": transport_maps(
        [NotIntertwining("map fails to intertwine at series key (0, 0)"),
         None, None, None]),
    "functor-transport/skew-accepted": transport_maps([None] * 4),
    "functor-transport/round-trip": transport_round_trip,
}


@pytest.mark.parametrize("case", sorted(DRIVERS))
def test_non_pass_report_matches_recording(case):
    want = json.loads(RECORDING.read_text())
    assert sorted(want) == sorted(DRIVERS), "the driver set changed"
    rep = DRIVERS[case]().to_dict()
    assert rep["status"] != "pass"
    assert rep == want[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_fail_reports.py --record")
    RECORDING.write_text(json.dumps(
        {case: DRIVERS[case]().to_dict() for case in sorted(DRIVERS)},
        indent=1, sort_keys=True) + "\n")
