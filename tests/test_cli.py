import csv
import io
import json
import pathlib
import time
from fractions import Fraction as F
from math import floor

import pytest

from voatwist import cli, lie
from voatwist.cli import (
    EXIT_CODES,
    MAX_REACH,
    exit_status,
    main,
    parse_config,
    render_csv,
    render_json,
    run_config,
)
from voatwist.errors import ConfigError, Unsupported
from voatwist.scalars import fmt_rational
from voatwist.series import MAX_WEIGHT, factors, monomial_weight
from voatwist.verify import CheckReport

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def base_config(**over):
    cfg = {
        "schemaVersion": 1,
        "algebra": {"type": "A", "rank": 1},
        "level": 2,
        "module": {"lambda": 0, "cutoff": 4},
        "twistChain": [
            {"kind": "innerSemisimple", "data": {"current": {"h1": "1/2"}}},
        ],
        "checks": [],
        "output": {"format": "json"},
    }
    cfg.update(over)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def test_parse_config_canonical_form():
    cfg = parse_config(base_config(checks=["grading"]))
    assert cfg["level"] == "2"
    assert cfg["module"] == {"lambda": "0", "cutoff": 4}
    assert cfg["checks"] == [{"name": "grading"}]
    assert list(cfg) == ["schemaVersion", "algebra", "level", "module",
                         "twistChain", "checks", "output"]
    # rationals inside steps and check params come back as p/q strings
    cfg = parse_config(base_config(checks=[
        {"name": "weights", "generator": "e1", "expected": "1/2"},
    ]))
    assert cfg["checks"][0]["expected"] == "1/2"
    assert cfg["twistChain"][0]["data"]["current"] == {"h1": "1/2"}


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError):
        parse_config(base_config(extra=1))
    with pytest.raises(ConfigError):
        parse_config(base_config(module={"lambda": 0, "cutoff": 4, "pad": 1}))
    with pytest.raises(ConfigError):
        parse_config(base_config(twistChain=[
            {"kind": "innerSemisimple",
             "data": {"current": {"h1": "1/2"}, "order": 2}}]))
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=[{"name": "grading", "weigth": 2}]))
    with pytest.raises(ConfigError):
        parse_config(base_config(output={"format": "json", "color": True}))


def test_required_check_params():
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=[{"name": "weights",
                                          "generator": "e1"}]))
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=[{"name": "zero-mode"}]))
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=[
            {"name": "additivity", "semisimpleCurrent": {"h1": "1"}}]))
    # delta is meaningless without an inner step to differentiate
    with pytest.raises(ConfigError):
        parse_config(base_config(twistChain=[], checks=["delta"]))


def test_value_validation():
    with pytest.raises(ConfigError):
        parse_config(base_config(algebra={"type": "A", "rank": 0}))
    with pytest.raises(ConfigError):
        parse_config(base_config(schemaVersion=2))
    with pytest.raises(ConfigError):
        parse_config(base_config(level="two"))
    with pytest.raises(ConfigError):
        parse_config(base_config(level=True))
    with pytest.raises(ConfigError):
        parse_config(base_config(output={"format": "yaml"}))
    with pytest.raises(ConfigError):
        parse_config(base_config(module={"lambda": 0, "cutoff": -1}))
    with pytest.raises(ConfigError):
        parse_config(base_config(checks=[{"name": "grading",
                                          "classConvention": "modular"}]))


def test_check_reach_past_the_largest_state_weight_is_refused(tmp_path, capsys):
    # a module state has weight at most MAX_WEIGHT and a check builds states
    # of about twice its weights, mode span and chain shift added up, so a
    # sum past MAX_REACH is a config error, not a DomainError part-way
    # through the run
    assert 2 * MAX_REACH + 1 == MAX_WEIGHT
    for entry in ({"name": "tables", "modeSpan": MAX_WEIGHT + 1, "weight": 0},
                  {"name": "tables", "modeSpan": MAX_REACH - 1},
                  {"name": "commutator", "modeSpan": 1024},
                  {"name": "axioms", "weight": MAX_REACH},
                  {"name": "delta", "targetWeight": 2000}):
        with pytest.raises(ConfigError, match="past 511"):
            parse_config(base_config(checks=[entry]))
    cfg = parse_config(base_config(checks=[
        {"name": "tables", "modeSpan": MAX_REACH - 2},
        {"name": "weights", "generator": "e1", "expected": "1", "count": 5000}]))
    assert cfg["checks"][0]["modeSpan"] == MAX_REACH - 2
    # the chain's eigenvalue shift counts too, once the chain is built: e1
    # and f1 shift by 2 * 600 under h1 = 600, so a weight-0 table at mode
    # span 1 would apply f1(-1201) to the vacuum
    cfg = base_config(twistChain=[{"kind": "innerSemisimple",
                                   "data": {"current": {"h1": "600"}}}],
                      checks=[{"name": "tables", "modeSpan": 1, "weight": 0}])
    path = write_config(tmp_path, cfg)
    for command in ("run", "tables"):
        assert main([command, path]) == EXIT_CODES[ConfigError]
        assert "the chain's eigenvalue shift is 1201" in capsys.readouterr().out
    cfg["twistChain"][0]["data"]["current"] = {"h1": "100"}
    assert main(["run", write_config(tmp_path, cfg)]) == 0


def test_double_run_is_byte_identical():
    cfg = parse_config(base_config(checks=[
        {"name": "grading", "classConvention": "exact"},
        {"name": "weights", "generator": "e1", "expected": "1/2", "count": 3},
    ], output={"format": "json", "modeSpan": 1, "dimensionWindow": 2}))
    first, status_a = run_config(cfg, with_checks=True)
    second, status_b = run_config(cfg, with_checks=True)
    assert status_a == status_b == 0
    assert render_json(first) == render_json(second)


def test_report_echoes_canonical_config():
    cfg = parse_config(base_config())
    report, _ = run_config(cfg, with_checks=False)
    assert report["config"] == cfg
    assert report["schemaVersion"] == 1
    # ad of h/2 has integer spectrum, so no fractional branch appears
    assert report["branchOrder"] == 1


def test_transport_alone_keeps_branch_order_one():
    # tau id tau^-1 = id: conjugating by the flip adds no diagram factor
    cfg = parse_config(base_config(
        algebra={"type": "A", "rank": 2}, module={"lambda": 0, "cutoff": 2},
        twistChain=[{"kind": "transportTau", "data": {"permutation": [2, 1]}}]))
    report, _ = run_config(cfg, with_checks=False)
    assert report["branchOrder"] == 1


def test_a_transported_run_inverts_its_conjugator_once(monkeypatch):
    # the conjugator's inverse is memoized: the chain images and the
    # equivariance check's generator matrices all reuse one mat_inverse
    calls = []
    inverse = lie.mat_inverse
    monkeypatch.setattr(lie, "mat_inverse", lambda m: calls.append(m) or inverse(m))
    cfg = parse_config(base_config(
        algebra={"type": "A", "rank": 2}, module={"lambda": 0, "cutoff": 2},
        twistChain=[
            {"kind": "innerSemisimple", "data": {"current": {"h1": "1/3", "h2": "2/3"}}},
            {"kind": "transportTau", "data": {"permutation": [2, 1]}}],
        checks=[{"name": "equivariance", "weight": 1}]))
    report, status = run_config(cfg, with_checks=True)
    assert status == 0 and report["checks"][0]["status"] == "pass"
    assert len(calls) == 1 and len(calls[0]) == 8


def _checks_at(tmp_path, capsys, cfg, cutoff):
    """The exit status and the checks array of cfg run at the given cutoff."""
    status = main(["run", write_config(tmp_path, {**cfg, "module": {"lambda": 0,
                                                                   "cutoff": cutoff}})])
    return status, json.loads(capsys.readouterr().out)["checks"]


def test_commutators_past_the_cutoff_are_a_window_error(tmp_path, capsys):
    # at cutoff 3, e1(-2) applied to a weight-2 state reaches weight 4: the
    # mode output is computed in full, so the run reports what cutoff 6 does
    cfg = base_config(twistChain=[], checks=["commutator"])
    want = _checks_at(tmp_path, capsys, cfg, 6)
    assert want[0] == 0
    assert _checks_at(tmp_path, capsys, cfg, 3) == want


@pytest.mark.parametrize("cutoff", [3, 5])
def test_delta_checks_do_not_depend_on_the_cutoff(tmp_path, capsys, cutoff):
    # the shift images of the weight-0 delta checks reach monomials past
    # cutoffs 3 and 5, whose coefficients must not read as zero: each run
    # passes and reports what cutoff 6 does
    cfg = base_config(checks=[{"name": "delta", "weight": 0}])
    want = _checks_at(tmp_path, capsys, cfg, 6)
    assert want[0] == 0
    assert _checks_at(tmp_path, capsys, cfg, cutoff) == want


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", str(CONFIG_DIR / "critical_level.json")]) == 10
    out = capsys.readouterr().out
    assert json.loads(out)["error"]["code"] == "CriticalLevel"

    assert main(["run", str(CONFIG_DIR / "not_fixed.json")]) == 11
    assert main(["run", str(CONFIG_DIR / "needs_field_extension.json")]) == 12

    diagram = base_config(
        algebra={"type": "A", "rank": 2},
        module={"lambda": 0, "cutoff": 2},
        twistChain=[{"kind": "diagramData", "data": {"permutation": [2, 1]}}],
        checks=["grading"])
    assert main(["run", write_config(tmp_path, diagram)]) == 13
    capsys.readouterr()

    # the automorphism image of the current is computed in full at cutoff 0,
    # so the chain is built as at cutoff 6
    shallow = base_config(algebra={"type": "A", "rank": 2},
                          checks=[{"name": "equivariance", "weight": 1}])
    want = _checks_at(tmp_path, capsys, shallow, 6)
    assert want[0] == 0
    assert _checks_at(tmp_path, capsys, shallow, 0) == want

    # additivity of currents whose parts do not commute is undefined
    noncommuting = base_config(checks=[{"name": "additivity",
                                        "semisimpleCurrent": {"h1": "1"},
                                        "nilpotentCurrent": {"e1": "1"}}])
    assert main(["run", write_config(tmp_path, noncommuting)]) == 19
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "DomainError", "message": "additivity needs commuting current parts"}


def _error_of(tmp_path, capsys, cfg):
    status = main(["run", write_config(tmp_path, cfg)])
    return status, json.loads(capsys.readouterr().out)["error"]


def _step(kind, **data):
    return {"kind": kind, "data": data}


@pytest.mark.parametrize("rank,chain,status,code,message", [
    (1, [_step("innerSemisimple", current={"e1": "1"})], 15, "NotSemisimple",
     "the declared semisimple step carries a nilpotent part"),
    (1, [_step("innerNilpotent", current={"h1": "1"})], 17, "NotUnipotent",
     "the declared nilpotent step carries a semisimple part"),
    (2, [_step("diagramData", permutation=[2, 1])] * 2, 13, "Unsupported",
     "only one diagram factor per chain"),
], ids=["semisimple-step-with-nilpotent-part", "nilpotent-step-with-semisimple-part",
        "two-diagram-steps"])
def test_chain_steps_the_build_refuses(tmp_path, capsys, rank, chain, status,
                                       code, message):
    cfg = base_config(algebra={"type": "A", "rank": rank},
                      module={"lambda": 0, "cutoff": 2}, twistChain=chain)
    assert _error_of(tmp_path, capsys, cfg) == (status, {"code": code,
                                                         "message": message})


def test_a_step_need_not_commute_with_the_earlier_steps():
    # exp(-2 pi i ad h1) is the identity, so it fixes e1 + f1, which does
    # not commute with h1: the automorphism is the product of the steps'
    # factors, not the exp of their summed currents
    cfg = parse_config(base_config(
        module={"lambda": 0, "cutoff": 6},
        twistChain=[_step("innerSemisimple", current={"h1": "1"}),
                    _step("innerSemisimple", current={"e1": "1", "f1": "1"})],
        checks=[{"name": "axioms", "weight": 1, "ceiling": 1},
                {"name": "equivariance", "weight": 1},
                {"name": "functor", "probeWeight": 1, "ceiling": 1},
                {"name": "commutator", "modeSpan": 1, "weight": 1}]))
    report, _ = run_config(cfg, with_checks=True)
    assert report["branchOrder"] == 1
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("twisted-axioms", "pass"), ("equivariance", "pass"),
        ("functor-transport", "pass"), ("twisted-commutators", "uncertifiable")]
    assert report["checks"][3]["details"]["reason"] == (
        "a probed generator is not an eigenvector of the chain")


def _transported_chain(first, then, cutoff, checks):
    """An A2, level 1 config: the first step, the flip as a transport, then
    the second step, each inner step given by (kind, current)."""
    return parse_config(base_config(
        algebra={"type": "A", "rank": 2}, level=1,
        module={"lambda": 0, "cutoff": cutoff},
        twistChain=[_step(first[0], current=first[1]),
                    _step("transportTau", permutation=[2, 1]),
                    _step(then[0], current=then[1])],
        checks=checks))


_TRANSPORT_EQUIVARIANCE = [{"name": "equivariance", "ceiling": 1, "weight": 1}]


@pytest.mark.parametrize("then", [
    # the two nilpotent parts do not commute in one frame
    ("innerNilpotent", {"e2": "1"}),
    # read in the wrong frame, the second step moved e1's image
    ("innerSemisimple", {"h1": "2/3", "h2": "1/3"}),
], ids=["nilpotent", "semisimple"])
def test_an_inner_step_after_a_transport_is_read_in_the_transported_frame(then):
    cfg = _transported_chain(("innerNilpotent", {"e1": "1"}), then, 3,
                             _TRANSPORT_EQUIVARIANCE)
    report, status = run_config(cfg, with_checks=True)
    assert status == 0
    assert report["checks"][0]["name"] == "equivariance"
    assert report["checks"][0]["status"] == "pass"


_TRANSPORTED_SEMISIMPLE = (("innerSemisimple", {"h1": "1/3", "h2": "2/3"}),
                           ("innerSemisimple", {"h1": "1/2"}))


def test_the_conformal_shift_reads_the_current_in_the_previous_frame():
    cfg = _transported_chain(*_TRANSPORTED_SEMISIMPLE, 6, [{"name": "conformal"}])
    report, status = run_config(cfg, with_checks=True)
    assert status == 0 and report["checks"][0]["status"] == "pass"


def test_twisted_commutators_after_a_transport():
    cfg = _transported_chain(*_TRANSPORTED_SEMISIMPLE, 6,
                             [{"name": "commutator", "modeSpan": 1, "weight": 1}])
    report, _ = run_config(cfg, with_checks=True)
    assert report["checks"][0]["status"] == "pass"


_FLIP = _step("transportTau", permutation=[2, 1])


@pytest.mark.parametrize("chain", [
    [_FLIP],
    [_step("innerSemisimple", current={"h1": "1/2", "h2": "1/2"}), _FLIP],
    [_FLIP, _step("innerSemisimple", current={"h1": "1/3", "h2": "2/3"})],
], ids=["flip", "semisimple-then-flip", "flip-then-semisimple"])
def test_mode_tables_and_commutators_read_a_transported_generator(chain):
    # the transported b_(m) is the untransported (tau^-1 b)_(m): the table,
    # the class of b and the relabeling formula must all read tau^-1 b, or
    # both checks fail at e1 on |0>
    cfg = parse_config(base_config(
        algebra={"type": "A", "rank": 2}, level=1, twistChain=chain,
        checks=[{"name": "tables", "modeSpan": 1, "weight": 1},
                {"name": "commutator", "modeSpan": 1, "weight": 1}]))
    report, status = run_config(cfg, with_checks=True)
    assert status == 0
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("mode-tables", "pass"), ("twisted-commutators", "pass")]


@pytest.mark.parametrize("over,check", [
    # the inverse law of e1(-1)^3 |0> reaches past cutoff 2
    ({"checks": [{"name": "group-laws", "weight": 3}]}, "group-laws"),
    ({"algebra": {"type": "A", "rank": 2}, "level": 1,
      "twistChain": [_step("innerSemisimple", current={"h1": "2", "h2": "1"})],
      "checks": [{"name": "additivity", "semisimpleCurrent": {"h1": "2", "h2": "1"},
                  "nilpotentCurrent": {"e2": "1"}, "weight": 3}]},
     "shift-additivity"),
], ids=["group-laws", "additivity"])
def test_truncated_series_comparisons_are_window_errors(tmp_path, capsys, over,
                                                        check):
    # every term is computed in full, so the comparison at cutoff 2 reports
    # what it reports at cutoff 6
    cfg = base_config(**over)
    want = _checks_at(tmp_path, capsys, cfg, 6)
    assert want[0] == 0 and [c["name"] for c in want[1]] == [check]
    assert _checks_at(tmp_path, capsys, cfg, 2) == want


def test_dimension_window_may_reach_the_cutoff_but_not_pass_it(tmp_path, capsys):
    at = base_config(output={"format": "json", "dimensionWindow": 4})
    report, status = run_config(parse_config(at), with_checks=False)
    assert status == 0
    assert report["gradedDimensions"]["inspectedWindow"] == 4
    past = base_config(output={"format": "json", "dimensionWindow": 5})
    assert _error_of(tmp_path, capsys, past) == (64, {
        "code": "ConfigError",
        "message": "config.output.dimensionWindow must not exceed config.module.cutoff"})


def test_main_config_errors(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad)]) == EXIT_CODES[ConfigError]
    assert main(["run", str(tmp_path / "missing.json")]) == EXIT_CODES[ConfigError]
    # argparse usage errors are funneled into the same code instead of
    # argparse's own exit(2), which is reserved for failed checks
    assert main(["run"]) == EXIT_CODES[ConfigError]
    assert main([]) == EXIT_CODES[ConfigError]
    capsys.readouterr()

    def error_code(argv):
        status = main(argv)
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "ConfigError"
        return status

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"level": "\xe9"}')
    assert error_code(["run", str(latin1)]) == EXIT_CODES[ConfigError]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    assert error_code(["run", str(deep)]) == EXIT_CODES[ConfigError]
    good = write_config(tmp_path, base_config())
    for dest in (tmp_path / "missing" / "report.json", tmp_path):
        assert error_code(["tables", good, "--output", str(dest)]) == 64
        in_config = write_config(tmp_path, base_config(
            output={"format": "json", "path": str(dest)}), name="out.json")
        assert error_code(["tables", in_config]) == 64


def test_rank_above_the_limit_exits_64_before_any_work(tmp_path, capsys,
                                                      monkeypatch):
    assert parse_config(base_config(
        algebra={"type": "A", "rank": cli.MAX_RANK}))["algebra"]["rank"] == 4
    monkeypatch.setattr(cli, "build_chain", lambda _config: pytest.fail(
        "the chain was built for a rank above the limit"))
    for rank in (cli.MAX_RANK + 1, 10000):
        cfg = base_config(algebra={"type": "A", "rank": rank}, twistChain=[])
        started = time.monotonic()
        assert main(["run", write_config(tmp_path, cfg)]) == 64
        assert time.monotonic() - started < 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"code": "ConfigError",
                         "message": "config.algebra.rank must be 1 to 4"}


def test_critical_level_outranks_an_unfixed_current(tmp_path, capsys):
    # the fixedness test runs before the shift operator is built, but a
    # critical level is still reported first
    cfg = json.loads((CONFIG_DIR / "not_fixed.json").read_text(encoding="utf-8"))
    cfg["level"] = "-3"
    assert main(["run", write_config(tmp_path, cfg)]) == 10
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "CriticalLevel"


def test_report_path_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(_config):
        raise AssertionError("the chain was built before the report path was checked")

    monkeypatch.setattr(cli, "build_chain", no_work)
    good = write_config(tmp_path, base_config())
    for dest in (tmp_path / "missing" / "report.json", tmp_path):
        for argv in (["run", good, "--output", str(dest)],
                     ["tables", write_config(tmp_path, base_config(
                         output={"format": "json", "path": str(dest)}),
                         name="out.json")]):
            assert main(argv) == 64
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["code"] == "ConfigError"
            assert "cannot write the report" in error["message"]


def test_output_file_and_format_override(tmp_path, capsys):
    cfg = base_config(module={"lambda": 0, "cutoff": 3})
    path = write_config(tmp_path, cfg)
    dest = tmp_path / "report.csv"
    assert main(["tables", path, "--output", str(dest),
                 "--format", "csv"]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(dest.read_text(encoding="utf-8"))))
    assert rows[0] == ["record", "field1", "field2", "field3", "field4",
                       "field5"]
    kinds = {r[0] for r in rows[1:]}
    assert "dimension" in kinds
    assert "modeRow" in kinds


def test_csv_and_json_agree_on_checks(tmp_path):
    cfg = parse_config(base_config(checks=[
        {"name": "grading", "classConvention": "exact"}]))
    report, status = run_config(cfg, with_checks=True)
    assert status == 0
    text = render_csv(report)
    rows = [r for r in csv.reader(io.StringIO(text)) if r and r[0] == "check"]
    assert len(rows) == 1
    assert rows[0][:4] == ["check", "grading-restriction", "pass", ""]
    assert json.loads(rows[0][4]) == report["checks"][0]["details"]
    assert report["checks"][0]["status"] == "pass"


def test_exit_status_tiers():
    ok = CheckReport("a", "pass")
    shaky = CheckReport("b", "uncertifiable")
    broken = CheckReport("c", "fail", witness={})
    assert exit_status([]) == 0
    assert exit_status([ok, ok]) == 0
    assert exit_status([ok, shaky]) == 3
    assert exit_status([ok, shaky, broken]) == 2


_GRADING = {"name": "grading"}
_ADD = {"name": "additivity", "semisimpleCurrent": {"h1": 1},
        "nilpotentCurrent": {"e1": 1}}
_WHERE = "config.checks[0]"
_NOT_RATIONAL = "must be a rational like \"-1/2\" or an integer"
_NOT_INT = "must be a non-negative integer"
_KNOWN = ("additivity, axioms, commutator, conformal, delta, equivariance, "
          "functor, grading, group-laws, tables, weights, zero-mode")
CHECK_CONFIG_ERRORS = [
    ("unknown-check", {"checks": [{"name": "borcherds"}]},
     f"{_WHERE}.name 'borcherds' is not a check (known: {_KNOWN})"),
    ("unknown-key", {"checks": [{"name": "grading", "weigth": 2}]},
     f"unknown keys in {_WHERE}: weigth"),
    ("weights-no-generator", {"checks": [{"name": "weights", "expected": "1"}]},
     f"{_WHERE} needs 'generator'"),
    ("weights-no-expected", {"checks": [{"name": "weights", "generator": "e1"}]},
     f"{_WHERE} needs 'expected'"),
    ("zero-mode-no-generator", {"checks": [{"name": "zero-mode"}]},
     f"{_WHERE} needs 'generator'"),
    ("additivity-no-nilpotent",
     {"checks": [{"name": "additivity", "semisimpleCurrent": {"h1": 1}}]},
     f"{_WHERE} needs 'nilpotentCurrent'"),
    ("additivity-no-semisimple",
     {"checks": [{"name": "additivity", "nilpotentCurrent": {"e1": 1}}]},
     f"{_WHERE} needs 'semisimpleCurrent'"),
    ("additivity-no-currents", {"checks": [{"name": "additivity"}]},
     f"{_WHERE} needs 'semisimpleCurrent'"),
    ("negative-int", {"checks": [{"name": "axioms", "weight": -1}]},
     f"{_WHERE}.weight {_NOT_INT}"),
    ("bool-int", {"checks": [{"name": "axioms", "ceiling": True}]},
     f"{_WHERE}.ceiling {_NOT_INT}"),
    ("string-int", {"checks": [{"name": "tables", "logMax": "2"}]},
     f"{_WHERE}.logMax {_NOT_INT}"),
    ("non-string-generator", {"checks": [{"name": "zero-mode", "generator": 1}]},
     f"{_WHERE}.generator must be a string"),
    ("non-rational-expected",
     {"checks": [{"name": "weights", "generator": "e1", "expected": "half"}]},
     f"{_WHERE}.expected {_NOT_RATIONAL}"),
    ("float-expected",
     {"checks": [{"name": "weights", "generator": "e1", "expected": 0.5}]},
     f"{_WHERE}.expected {_NOT_RATIONAL}"),
    ("empty-coefficients", {"checks": [dict(_ADD, semisimpleCurrent={})]},
     f"{_WHERE}.semisimpleCurrent must map generator names to rationals"),
    ("non-dict-coefficients", {"checks": [dict(_ADD, nilpotentCurrent=["e1"])]},
     f"{_WHERE}.nilpotentCurrent must map generator names to rationals"),
    ("non-rational-coefficient",
     {"checks": [dict(_ADD, semisimpleCurrent={"h1": "x"})]},
     f"{_WHERE}.semisimpleCurrent.h1 {_NOT_RATIONAL}"),
    ("bad-class-convention",
     {"checks": [{"name": "grading", "classConvention": "modular"}]},
     f"{_WHERE}.classConvention must be \"mod-1\" or \"exact\""),
] + [
    (f"{name}-without-inner-step", {"twistChain": [], "checks": [name]},
     f"check '{name}' needs at least one inner twist step in config.twistChain")
    for name in ("delta", "conformal", "functor", "group-laws")
] + [
    ("weights-unknown-generator",
     {"checks": [_GRADING, {"name": "weights", "generator": "x1",
                            "expected": "1"}]},
     "weights check: unknown generator 'x1'"),
    ("zero-mode-unknown-generator",
     {"checks": [_GRADING, {"name": "zero-mode", "generator": "x1"}]},
     "zero-mode check: unknown generator 'x1'"),
    ("additivity-unknown-semisimple",
     {"checks": [_GRADING, dict(_ADD, semisimpleCurrent={"x1": 1})]},
     "additivity check: no generator named 'x1'"),
    ("additivity-unknown-nilpotent",
     {"checks": [_GRADING, dict(_ADD, nilpotentCurrent={"y1": 1})]},
     "additivity check: no generator named 'y1'"),
    ("twist-step-unknown-generator",
     {"twistChain": [{"kind": "innerSemisimple",
                      "data": {"current": {"x1": "1/2"}}}]},
     "twist step current names an unknown generator: no generator named 'x1'"),
]


@pytest.mark.parametrize("over,message", [case[1:] for case in CHECK_CONFIG_ERRORS],
                         ids=[case[0] for case in CHECK_CONFIG_ERRORS])
def test_check_config_error_messages(tmp_path, capsys, over, message):
    assert main(["run", write_config(tmp_path, base_config(**over))]) == 64
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"code": "ConfigError", "message": message}


_UNKNOWN_GENERATOR_CASES = [case for case in CHECK_CONFIG_ERRORS if case[0] in (
    "weights-unknown-generator", "zero-mode-unknown-generator",
    "additivity-unknown-semisimple", "additivity-unknown-nilpotent")]


@pytest.mark.parametrize("over,message", [case[1:] for case in _UNKNOWN_GENERATOR_CASES],
                         ids=[case[0] for case in _UNKNOWN_GENERATOR_CASES])
def test_check_generators_are_checked_before_any_check(tmp_path, capsys,
                                                       monkeypatch, over, message):
    # the commutator check runs before the bad entry, so the bad generator
    # must be found before any check runs
    cfg = base_config(module={"lambda": 0, "cutoff": 3}, twistChain=[],
                      checks=["commutator", *over["checks"]])
    path = write_config(tmp_path, cfg)
    assert main(["run", path]) == 64
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message

    def no_check(*_args, **_kwargs):
        raise AssertionError("a check ran before every generator name was checked")

    for name in dir(cli.verify):
        if name.startswith("check_"):
            monkeypatch.setattr(cli.verify, name, no_check)
    assert main(["run", path]) == 64
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message


def test_tables_refuses_the_check_entries_that_run_refuses(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "sl2_semisimple.json").read_text(encoding="utf-8"))
    cfg["checks"].append({"name": "zero-mode", "generator": "x1"})
    path = write_config(tmp_path, cfg)
    errors = []
    for command in ("run", "tables"):
        assert main([command, path]) == 64
        errors.append(json.loads(capsys.readouterr().out)["error"])
    assert errors == [{"code": "ConfigError",
                       "message": "zero-mode check: unknown generator 'x1'"}] * 2


# -- graded dimensions against their first form -------------------------------


def window_monomials(run, window):
    return [""] + [mono for w in range(1, window + 1) for mono in run.module.basis(w)]


def first_class(twisted, mono):
    """The class of a monomial as a Fraction sum: minus the zero mode plus
    the class offset of each factor, from TwistedModule.grading."""
    offsets, zero_mode, _half_kappa = twisted.grading()
    cls = -zero_mode
    for gi, _m in factors(mono):
        if offsets[gi] is None:
            raise Unsupported("grading needs every generator to be an eigenvector "
                              "of each step's semisimple part")
        cls += offsets[gi]
    return cls


def first_graded_rows(run, window):
    """The Fraction count: each monomial keyed by its weight and its class
    mod 1, the weight being its PBW weight minus its class plus kappa/2."""
    half_kappa = run.twisted.grading()[2]
    counts = {}
    for mono in window_monomials(run, window):
        cls = first_class(run.twisted, mono)
        key = (monomial_weight(mono) - cls + half_kappa, cls - floor(cls))
        counts[key] = counts.get(key, 0) + 1
    return [{"weight": fmt_rational(w), "class": fmt_rational(c), "dimension": n}
            for (w, c), n in sorted(counts.items())]


# (rank, level, chain, branch order): two semisimple steps give a nonzero
# zero-mode scalar; a step whose semisimple part has no generator as an
# eigenvector leaves the grading undefined
GRADED_CHAINS = {
    "order 1, nilpotent": (1, "2", [_step("innerNilpotent", current={"e1": "1"})], 1),
    "order 2": (1, "2", [_step("innerSemisimple", current={"h1": "1/4"})], 2),
    "order 3": (1, "1/2", [_step("innerSemisimple", current={"h1": "1/3"})], 3),
    "order 6, two steps": (2, "3/2", [_step("innerSemisimple", current={"h1": "1/2"}),
                                      _step("innerSemisimple", current={"h2": "1/3"})], 6),
    "order 1, semisimple then nilpotent": (
        2, "2", [_step("innerSemisimple", current={"h1": "1/3", "h2": "2/3"}),
                 _step("innerNilpotent", current={"e2": "1"})], 1),
    "no grading": (1, "2", [_step("innerSemisimple", current={"e1": "1", "f1": "1"})], 1),
}


@pytest.mark.parametrize("name", sorted(GRADED_CHAINS))
def test_graded_rows_match_the_fraction_count(name):
    rank, level, chain, order = GRADED_CHAINS[name]
    config = parse_config(base_config(algebra={"type": "A", "rank": rank}, level=level,
                                      module={"lambda": 0, "cutoff": 3},
                                      twistChain=chain))
    run = cli.build_chain(config)
    assert run.twisted.branch_order() == order
    try:
        want = first_graded_rows(run, 3)
    except Unsupported as exc:
        with pytest.raises(Unsupported) as got:
            cli._graded_dimension_rows(run, 3)
        assert str(got.value) == str(exc)
        report, _status = run_config(config, with_checks=False)
        assert report["gradedDimensions"] is None
        assert f"graded dimensions omitted: {exc}" in report["truncationNotices"]
        return
    assert name != "no grading"
    assert cli._graded_dimension_rows(run, 3) == want
    # class_of and weight_of read the same lattice, and follow the scalar rule
    half_kappa = run.twisted.grading()[2]
    for mono in window_monomials(run, 3):
        cls = first_class(run.twisted, mono)
        weight = monomial_weight(mono) - cls + half_kappa
        for got, value in ((run.twisted.class_of(mono), cls),
                           (run.twisted.weight_of(mono), weight)):
            assert got == value
            assert type(got) is (int if F(value).denominator == 1 else F)
