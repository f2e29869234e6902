import json
from fractions import Fraction as F

import pytest

from voatwist import verify
from voatwist.delta import make_delta
from voatwist.errors import DomainError
from voatwist.fock import build_module
from voatwist.lie import AutomorphismData, build_simple_lie
from voatwist.twist import TwistedModule, make_twisted, untwisted_as_twisted
from voatwist.verify import (
    CheckReport,
    basis_states,
    chain_log_bound,
    check_additivity,
    check_equivariance,
    check_grading_restriction,
    check_regraded_weights,
    check_shift_conjugation,
    check_translation_bracket,
    check_weight_bracket,
    check_zero_mode_nilpotency,
)

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=8)
TW = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 2)})))
U_S = MOD.current(sl2.element({"h1": F(1, 2)}))
ARGS = [(MOD.current("e1"), "e1(-1) |0>")]
TARGETS = basis_states(MOD, 1)


def test_shift_conjugation_passes():
    rep = check_shift_conjugation(MOD, U_S, ARGS, TARGETS, inner_ceiling=2)
    assert rep.status == "pass"
    assert rep.witness is None
    assert rep.details["pairsChecked"] == len(ARGS) * len(TARGETS)


def test_legacy_sign_fails_with_witness():
    # flipping the exponent sign breaks conjugation, and the report must
    # point at a concrete coefficient rather than just flagging failure
    rep = check_shift_conjugation(MOD, U_S, ARGS, TARGETS, inner_ceiling=2,
                                  legacy=True)
    assert rep.status == "fail"
    wit = rep.witness
    for key in ("argument", "target", "left", "right",
                "innerExponent", "outerExponent"):
        assert key in wit
    assert wit["left"] != wit["right"]


def test_grading_restriction_trichotomy():
    # integer shift 1 on e repeats a graded piece under mod-1 classes
    rep = check_grading_restriction(TW)
    assert rep.status == "fail"
    assert rep.witness["generator"] == "e1"
    assert rep.witness["family"] == "e1(-1)^k |0>"

    # exact classes separate those states again
    rep = check_grading_restriction(TW, coset_classes=False)
    assert rep.status == "pass"

    # with a shift above 1 the exact convention can no longer certify
    full = make_twisted(MOD, MOD.current("h1"))
    rep = check_grading_restriction(full, coset_classes=False)
    assert rep.status == "uncertifiable"


def test_grading_restriction_fractional_descent():
    tq = make_twisted(MOD, MOD.current(sl2.element({"h1": F(3, 4)})))
    rep = check_grading_restriction(tq)
    assert rep.status == "fail"
    assert rep.witness["shift"] == "3/2"
    assert rep.witness["family"] == "e1(-1)^(2k) |0>"


def test_grading_restriction_needs_eigenvectors():
    # h + e is semisimple but not in the Cartan, so f is no eigenvector
    mixed = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1),
                                                       "e1": F(1)})))
    rep = check_grading_restriction(mixed)
    assert rep.status == "uncertifiable"
    assert rep.details["generator"] == "f1"


def test_zero_mode_three_outcomes():
    # raising-current orbits climb out of the window: only a cutoff
    # certificate is possible
    rep = check_zero_mode_nilpotency(TW, "e1", weight=2)
    assert rep.status == "uncertifiable"
    assert rep.details["cutoffRelative"] is True
    assert rep.details["escapingOrbits"] >= 1

    # untwisted e(0) is plain ad_e on each tensor slot, which dies
    rep = check_zero_mode_nilpotency(untwisted_as_twisted(MOD), "e1",
                                     weight=2)
    assert rep.status == "pass"

    # the twisted h zero mode carries the pairing scalar, so the vacuum
    # orbit never dies and its span convicts the mode
    rep = check_zero_mode_nilpotency(TW, "h1", weight=2)
    assert rep.status == "fail"
    assert rep.witness["state"] == "|0>"


def test_additivity_preconditions_recomputed():
    with pytest.raises(DomainError):
        check_additivity(MOD, MOD.current("h1"), MOD.current("e1"), ARGS)
    with pytest.raises(DomainError):
        check_additivity(MOD, MOD.current("h1"), MOD.current("h1"), ARGS)
    zero = MOD.current(sl2.zero())
    rep = check_additivity(MOD, zero, MOD.current("e1"), ARGS)
    assert rep.status == "pass"


def test_regraded_weight_mismatch_is_reported():
    name_idx = {n: i for i, n in enumerate(sl2.names)}
    good = ((name_idx["e1"], -1),)
    rep = check_regraded_weights(TW, [(good, F(1, 2))])
    assert rep.status == "pass"
    rep = check_regraded_weights(TW, [(good, F(1))])
    assert rep.status == "fail"
    assert rep.witness["got"] == "1/2"
    assert rep.witness["expected"] == "1"


def test_chain_log_bound():
    assert chain_log_bound(TW) == 0
    uni = make_twisted(MOD, MOD.current("e1"))
    # ad_e cubes to zero, so at most two log powers can appear
    assert chain_log_bound(uni) == 2


def test_report_dict_is_order_independent():
    a = CheckReport("demo", "fail", witness={"b": 1, "a": 2},
                    details={"z": 0, "y": 1})
    b = CheckReport("demo", "fail", witness={"a": 2, "b": 1},
                    details={"y": 1, "z": 0})
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    keys = list(a.to_dict()["witness"])
    assert keys == sorted(keys)


def _fail(name, count_key, count, **witness):
    return {"name": name, "status": "fail", "witness": witness,
            "details": {count_key: count}}


def test_equivariance_fail_report():
    # the chain keeps its h1 = 1/3 step but forgets its automorphism
    mod = build_module(sl2, F(2), cutoff=6)
    tw = make_twisted(mod, mod.current(sl2.element({"h1": F(1, 3)})))
    wrong = TwistedModule(tw.base, tw.steps, AutomorphismData(sl2))
    assert check_equivariance(wrong).to_dict() == _fail(
        "equivariance", "comparisons", 1, argument="e1(-1) |0>",
        exponent="-2/3", left="(1*z3^1) e1(-1) |0>", logPower=0,
        right="(1) e1(-1) |0>", target="|0>")


@pytest.mark.parametrize("check, current, want", [
    (check_weight_bracket, {"h1": F(1, 2)}, _fail(
        "weight-bracket", "statesChecked", 2, exponent="1", left="0",
        logPower=0, right="(2) e1(-1) |0>", state="e1(-1) |0>")),
    (check_translation_bracket, {"h1": F(1, 2)}, _fail(
        "translation-bracket", "statesChecked", 2, exponent="0",
        left="(1) e1(-1) |0>", logPower=0, right="(-1) e1(-1) |0>",
        state="e1(-1) |0>")),
    (check_weight_bracket, {"e1": 1}, _fail(
        "weight-bracket", "statesChecked", 3, exponent="0", left="0",
        logPower=0, right="(2) h1(-1) |0>", state="f1(-1) |0>")),
    (check_translation_bracket, {"e1": 1}, _fail(
        "translation-bracket", "statesChecked", 3, exponent="-2",
        left="(2) |0>", logPower=0, right="(-2) |0>", state="f1(-1) |0>")),
])
def test_bracket_fail_reports(monkeypatch, check, current, want):
    # the legacy exponent sign breaks both derivation brackets
    monkeypatch.setattr(verify, "make_delta",
                        lambda module, u: make_delta(module, u, True))
    mod = build_module(sl2, F(2), cutoff=6)
    u = mod.current(sl2.element(current))
    assert check(mod, u, basis_states(mod, 2)).to_dict() == want
