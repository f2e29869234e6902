import csv
import io
import json
import pathlib

import pytest

from voatwist.cli import (
    EXIT_CODES,
    _perm_order,
    exit_status,
    main,
    parse_config,
    render_csv,
    render_json,
    run_config,
)
from voatwist.errors import ConfigError
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


def test_perm_order():
    assert _perm_order([1]) == 1
    assert _perm_order([2, 1]) == 2
    assert _perm_order([2, 3, 1]) == 3
    assert _perm_order([2, 1, 4, 3]) == 2


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

    # the automorphism image of the current is cut off at cutoff 0: that is
    # a window too small to decide, not a current the automorphism moves
    shallow = base_config(algebra={"type": "A", "rank": 2},
                          module={"lambda": 0, "cutoff": 0})
    assert main(["run", write_config(tmp_path, shallow)]) == 19
    assert json.loads(capsys.readouterr().out)["error"]["code"] == "DomainError"


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
