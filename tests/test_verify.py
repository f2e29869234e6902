import json
import pathlib
from fractions import Fraction as F
from functools import lru_cache

import pytest

from voatwist import cli, verify
from voatwist.errors import DomainError, VoatwistError
from voatwist.fock import PBWVector, build_module
from voatwist.lie import build_simple_lie
from voatwist.scalars import Cyc
from voatwist.series import LogSeries, expand_at_sum, linear_series, monomial
from voatwist.twist import make_twisted, untwisted_as_twisted
from voatwist.verify import (
    CheckReport,
    basis_states,
    chain_log_bound,
    check_additivity,
    check_grading_restriction,
    check_regraded_weights,
    check_shift_conjugation,
    check_zero_mode_nilpotency,
    current_states,
)

sl2 = build_simple_lie("A", 1)
MOD = build_module(sl2, F(2), cutoff=8)
TW = make_twisted(MOD, MOD.current(sl2.element({"h1": F(1, 2)})))
U_S = MOD.current(sl2.element({"h1": F(1, 2)}))
ARGS = [(MOD.current("e1"), "e1(-1) |0>")]
TARGETS = basis_states(MOD, 1)


def test_nilpotency_index_walks_ad_powers():
    assert verify._nilpotency_index(sl2, None) == 0
    assert verify._nilpotency_index(sl2, sl2.element({})) == 0
    # ad(e1): f1 -> h1 -> e1 -> 0
    assert verify._nilpotency_index(sl2, sl2.element({"e1": 1})) == 3
    with pytest.raises(DomainError, match="not actually nilpotent"):
        verify._nilpotency_index(sl2, sl2.element({"h1": 1}))


def test_current_states_are_the_generators_currents():
    # the checks' argument states: each generator's current in the order of
    # the names, labelled as basis_states labels it, then the conformal state
    states = current_states(MOD, conformal=True)
    assert [vec for vec, _label in states[:-1]] == [MOD.current(nm) for nm in sl2.names]
    assert [label for _vec, label in states] == ["e1(-1) |0>", "f1(-1) |0>",
                                                  "h1(-1) |0>", "conformal state"]
    assert states[-1][0] == MOD.conformal_vector()
    assert current_states(MOD) == states[:-1]


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


def _combo(*terms):
    """A vector from (coefficient, basis label) pairs of basis_states(MOD, 2)."""
    labels = {label: vec for vec, label in basis_states(MOD, 2)}
    out = PBWVector()
    for c, label in terms:
        out = out + c * labels[label]
    return out, " + ".join(f"({c}) {label}" for c, label in terms)


@pytest.mark.parametrize("coords", [{"h1": F(1, 2)}, {"h1": F(1, 3)},
                                    {"e1": 1}], ids=["h1=1/2", "h1=1/3", "e1"])
def test_shift_conjugation_passes_on_fraction_combinations(coords):
    # D(v), D(w) and the substitution tables all carry denominators here,
    # so the common-denominator comparison has something to clear
    args = [_combo((F(1, 2), "e1(-1) |0>"), (F(-2, 3), "h1(-1) |0>"),
                   (3, "f1(-1) |0>")),
            _combo((3, "|0>"), (F(1, 2), "e1(-1) f1(-1) |0>"),
                   (F(-2, 3), "h1(-2) |0>"))]
    targets = [_combo((F(-2, 3), "|0>"), (3, "e1(-1) |0>")),
               _combo((F(1, 2), "f1(-1) |0>"), (F(-2, 3), "h1(-1) |0>"))]
    rep = check_shift_conjugation(MOD, MOD.current(sl2.element(coords)),
                                  args, targets, inner_ceiling=2)
    assert rep.status == "pass", rep.witness
    assert rep.details["pairsChecked"] == 4
    legacy = check_shift_conjugation(MOD, MOD.current(sl2.element(coords)),
                                     args, targets, inner_ceiling=2, legacy=True)
    assert legacy.status == "fail"


E1 = monomial((sl2.names.index("e1"), -1))
H1 = monomial((sl2.names.index("h1"), -1))


@pytest.mark.parametrize("left, den, scale, right, equal", [
    ({E1: F(1, 2), H1: 3}, 1, 6, {E1: 3, H1: 18}, True),
    ({E1: F(1, 2), H1: 3}, 1, 6, {E1: 4, H1: 18}, False),
    ({E1: F(1, 2), H1: 3}, 1, 6, {E1: 3}, False),
    ({E1: F(1, 2)}, 1, 6, {E1: 3, H1: 18}, False),
    ({}, 1, 6, {}, True),
    ({E1: Cyc.zeta(3, 1) / 2}, 1, 4, {E1: 2 * Cyc.zeta(3, 1)}, True),
    ({E1: Cyc.zeta(3, 1) / 2}, 1, 4, {E1: 2 * Cyc.zeta(3, 1) + 1}, False),
    # an integral left side over its denominator: 1/2 and -2/3 on both sides
    ({E1: 3, H1: -4}, 6, 12, {E1: 6, H1: -8}, True),
    ({E1: 3, H1: -4}, 6, 12, {E1: 6, H1: 8}, False),
    # Fraction values on either side, with den != 1
    ({E1: F(3, 2)}, 3, 4, {E1: 2}, True),
    ({E1: 1}, 2, 1, {E1: F(1, 2)}, True),
    ({E1: F(3, 2)}, 3, 4, {E1: F(5, 2)}, False),
    ({E1: Cyc.zeta(3, 1)}, 2, 4, {E1: 2 * Cyc.zeta(3, 1)}, True),
], ids=["equal", "numerator-off-by-one", "missing-key", "extra-key", "empty",
        "cyc-equal", "cyc-differs", "den-equal", "den-sign-differs",
        "fraction-left", "fraction-right", "fraction-differs", "cyc-den-equal"])
def test_scaled_comparison_cross_multiplies(left, den, scale, right, equal):
    # left/den against right/scale
    wit = verify._compare_bivariate(sl2, {(0, 0, 0): (left, den)}, {(0, 0, 0): right},
                                    scale, 0)
    assert (wit is None) is equal


def test_scaled_witness_prints_the_unscaled_right_side():
    # both sides divided, the left one by its den
    for left, den in (({E1: F(-2, 3)}, 1), ({E1: -4}, 6), ({E1: F(-4, 3)}, 2)):
        wit = verify._compare_bivariate(
            sl2, {(F(-1, 3), 1, 0): (left, den)},
            {(F(-1, 3), 1, 0): {E1: 12, H1: Cyc.zeta(3, 1) * 9}}, 18, 2)
        assert wit == {"outerExponent": "-1/3", "logPower": 1, "innerExponent": "0",
                       "left": "(-2/3) e1(-1) |0>",
                       "right": "(2/3) e1(-1) |0> + (1/2*z3^1) h1(-1) |0>"}


def test_bivariate_witness_is_the_first_mismatch_in_j_e_k_order():
    # mismatching keys inserted against (j, e, k) order, one past the ceiling
    lhs = {(0, 0, 3): ({E1: 1}, 1), (0, 0, 1): ({E1: 1}, 1), (5, 1, 0): ({E1: 2}, 1),
           (3, 0, 0): ({H1: 2}, 2), (-1, 0, 0): ({E1: 1}, 1)}
    rhs = {(3, 0, 0): {H1: 1}, (-1, 0, 0): {E1: 1}, (-1, 1, 0): {H1: 4}}
    wit = verify._compare_bivariate(sl2, lhs, rhs, 1, 2, argument="a")
    assert wit == {"argument": "a", "outerExponent": "-1", "logPower": 1,
                   "innerExponent": "0", "left": "0", "right": "(4) h1(-1) |0>"}
    del rhs[-1, 1, 0]
    wit = verify._compare_bivariate(sl2, lhs, rhs, 1, 2)
    assert (wit["outerExponent"], wit["logPower"], wit["innerExponent"]) == ("5", 1, "0")
    assert verify._compare_bivariate(sl2, {(0, 0, 3): ({E1: 1}, 1)}, {}, 1, 2) is None


@pytest.mark.parametrize("ceiling", [F(5, 2), 2.9, 2.0, "2"])
def test_conjugation_refuses_a_non_integral_inner_ceiling(ceiling):
    # int() would truncate F(5, 2) and 2.9 to 2 and check a window not asked for
    with pytest.raises(DomainError, match="inner ceiling must be an integer"):
        check_shift_conjugation(MOD, U_S, ARGS, TARGETS, inner_ceiling=ceiling)
    # an integral Fraction is the int it equals
    rep = check_shift_conjugation(MOD, U_S, ARGS, TARGETS, inner_ceiling=F(2))
    assert rep == check_shift_conjugation(MOD, U_S, ARGS, TARGETS, inner_ceiling=2)
    assert type(rep.details["innerCeiling"]) is int


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


def test_series_case_refuses_a_flagged_term_in_the_window():
    """A check compares the values of every term, on either side."""
    e1 = MOD.current("e1")
    exact = LogSeries({(0, 0): e1})
    for left, right in [(LogSeries({(0, 0): 2 * e1}), exact),
                        (exact, LogSeries({(0, 0): 2 * e1})),
                        (exact, LogSeries({(0, 0): e1, (1, 0): e1}))]:
        counted, witness = verify._series_case(sl2, left, right)
        assert counted and witness is not None
    counted, witness = verify._series_case(sl2, exact, LogSeries(), state="s")
    assert counted and witness == {"state": "s", "exponent": "0", "logPower": 0,
                                   "left": "(1) e1(-1) |0>", "right": "0"}


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
    good = monomial((name_idx["e1"], -1))
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


def test_reports_keep_the_dataclass_contract():
    # details defaults to a fresh dict for each report, as a dataclass
    # default_factory gives it: a shared default would leak between reports
    a, b = CheckReport("demo", "pass"), CheckReport("demo", "pass")
    a.details["comparisons"] = 1
    assert b.details == {} and a.witness is None
    # == compares all four fields, and only between reports
    assert CheckReport("demo", "pass") == CheckReport("demo", "pass", None, {})
    for other in [CheckReport("other", "pass"), CheckReport("demo", "fail"),
                  CheckReport("demo", "pass", witness={}),
                  CheckReport("demo", "pass", details={"comparisons": 1}),
                  ("demo", "pass", None, {})]:
        assert CheckReport("demo", "pass") != other
    assert repr(a) == ("CheckReport(name='demo', status='pass', witness=None, "
                       "details={'comparisons': 1})")


@pytest.mark.parametrize("e", [0, 1, -2, F(1, 2), F(-1, 3)], ids=str)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_substitution_tables_match_sympy_series(e, k):
    # oracle: sympy's series of (x+y)^e log(x+y)^k in y, each y^p
    # coefficient read as a polynomial in log x times x^(e-p)
    import sympy

    x, y, logx = sympy.symbols("x y logx", positive=True)
    max_p = 4
    se = sympy.Rational(e.numerator, e.denominator) if isinstance(e, F) else e
    ser = sympy.series((x + y) ** se * sympy.log(x + y) ** k, y, 0, max_p + 1)
    ser = sympy.expand(ser.removeO())
    want = {}
    for p in range(max_p + 1):
        coeff = sympy.expand(ser.coeff(y, p) * x ** (p - se))
        coeff = sympy.expand(coeff.subs(sympy.log(x), logx))
        for (j,), c in sympy.Poly(coeff, logx).terms():
            if c:
                assert c.is_Rational, (p, j, c)
                want[(j, p)] = F(int(c.p), int(c.q))
    assert expand_at_sum(e, k, max_p) == want


@pytest.mark.parametrize("e, k, max_p", [(F(-1, 2), 1, 4), (0, 2, 5), (3, 1, 6),
                                         (F(1, 3), 3, 3), (-2, 0, 4)], ids=str)
def test_substitution_tables_come_in_ascending_y_power(e, k, max_p):
    # the right side of the conjugation check stops reading a table at the
    # first y-power past its bound, so the keys must come sorted by p
    powers = [p for _j, p in expand_at_sum(e, k, max_p)]
    assert powers == sorted(powers) and powers[-1] == max_p


def first_right_side(module, shifted, dw, ceiling):
    """The right side of _conjugated_sides in its first form: every pair's
    vertex_sums, then every table entry with p1 + ey <= ceiling."""
    rhs = {}
    for e1, vecv, table in shifted:
        for (ew, kw), vecw in dw:
            sub = module.vertex_sums(vecv, vecw, ceiling).items()
            for (j1, p1), c in table.items():
                for ey, terms in sub:
                    if p1 + ey <= ceiling:
                        key = (e1 - p1 + ew, j1 + kw, p1 + ey)
                        acc = rhs.get(key)
                        if acc is None:
                            rhs[key] = {mono: c * x for mono, x in terms.items()}
                            continue
                        for mono, x in terms.items():
                            x = acc[mono] + c * x if mono in acc else c * x
                            if x:
                                acc[mono] = x
                            else:
                                del acc[mono]
    return rhs


@pytest.mark.parametrize("legacy", [False, True], ids=["sign", "legacy sign"])
@pytest.mark.parametrize("coords", [{"h1": F(1, 2)}, {"e1": 1}], ids=["h1=1/2", "e1"])
def test_right_side_read_from_the_buckets_is_its_first_form(monkeypatch, coords, legacy):
    """The right side, summed straight from the _vs_mono buckets of each
    monomial pair, equals its vertex_sums form with empty sums dropped, on
    every pair of basis states up to weight 2 (the conjugation benchmark's
    pairs, on its module)."""
    mod = build_module(sl2, F(2), 9)
    u = mod.current(sl2.element(coords))
    real = verify._conjugated_sides
    seen = []

    def watched(delta, vc, wc, yden, shifted, dw, ceiling):
        lhs, rhs = real(delta, vc, wc, yden, shifted, dw, ceiling)
        want = first_right_side(delta.module, shifted, dw, ceiling)
        assert ({key: sub for key, sub in rhs.items() if sub}
                == {key: sub for key, sub in want.items() if sub})
        seen.append(len(want))
        return lhs, rhs

    monkeypatch.setattr(verify, "_conjugated_sides", watched)
    states = basis_states(mod, 2)
    assert len(states) == 13
    for v in states:
        for w in states:
            check_shift_conjugation(mod, u, [v], [w], legacy=legacy)
    assert len(seen) == 13 * 13 and sum(seen) > 0


ROOT = pathlib.Path(__file__).resolve().parent.parent
CHAIN_CONFIGS = (sorted((ROOT / "configs").glob("*.json"))
                 + sorted((ROOT / "tests" / "configs").glob("*.json"))
                 + [ROOT / "perfbench" / "configs" / "sl2_branch3.json"])


def test_equivariance_sums_equal_the_direct_series():
    """The linear_series sums check_equivariance compares, over one memoized
    image per target, equal twisted.vertex_series(g v, w, ceiling) in keys
    and values, on every chain that the shipped and test configs
    build."""
    built = []
    for path in CHAIN_CONFIGS:
        try:
            run = cli.build_chain(cli.load_config(str(path)))
        except VoatwistError:
            continue
        built.append(path.stem)
        tw, module = run.twisted, run.module
        for w, _label in basis_states(module, 2):
            image = lru_cache(maxsize=None)(
                lambda mono, w=w: tw.vertex_series(PBWVector({mono: 1}), w, 1))
            for name in module.algebra.names:
                gv = tw.automorphism_apply(module.current(name))
                got = linear_series(gv, image)
                want = tw.vertex_series(gv, w, 1)
                assert set(got.terms) == set(want.terms), (path.stem, name)
                for key, vec in want.terms.items():
                    assert got.terms[key].c == vec.c, (path.stem, name, key)
    assert built == ["sl2_nilpotent", "sl2_semisimple", "a2_diagram",
                     "a2_transport_tables", "a2_transport_then_inner",
                     "a2_two_inner_steps", "a3_diagram", "a4_diagram", "sl2_branch3"]


def test_shipped_checks_compare_reads_of_one_window(monkeypatch, tmp_path):
    """Every series that twisted-axioms, equivariance and functor-transport
    compare holds no term above the check's ceiling, as recorded in the
    report's details (functor-transport records none, so its ceiling
    argument stands in), on every chain the shipped and test configs
    build through the command line."""
    exponents, compared = [], {}
    series_case = verify._series_case

    def watched_series_case(alg, left, right, **fields):
        exponents.extend(e for ser in (left, right) for e, _k in ser.terms)
        return series_case(alg, left, right, **fields)

    def watched(check):
        def run(*args, **kwargs):
            exponents.clear()
            report = check(*args, **kwargs)
            window = report.details.get("ceiling", kwargs["ceiling"])
            assert max(exponents, default=window) <= window, (report.name, window)
            compared[report.name] = compared.get(report.name, 0) + len(exponents)
            return report
        return run

    monkeypatch.setattr(verify, "_series_case", watched_series_case)
    for name in ("check_twisted_axioms", "check_equivariance", "check_functor_transport"):
        monkeypatch.setattr(verify, name, watched(getattr(verify, name)))
    for path in CHAIN_CONFIGS:
        cli.main(["run", str(path), "--output", str(tmp_path / path.stem)])
    assert sorted(compared) == ["equivariance", "functor-transport", "twisted-axioms"]
    assert all(compared.values()), compared
