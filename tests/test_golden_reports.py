"""Byte-identity gate for the command line.

Two sets of recordings under tests/golden/ are compared:

* `voatwist run CONFIG --output FILE` on every file in configs/: exit
  code, stdout and report bytes (`<stem>.stdout`, `<stem>.report`,
  `exit_codes.json`);
* `voatwist run` and `voatwist tables`, each with `--format json` and
  `--format csv`, printing to stdout, on every file in configs/, the
  order-3 config perfbench/configs/sl2_branch3.json and every file in
  tests/configs/: exit code and stdout bytes (`<stem>.<command>.<format>`,
  `cli_exit_codes.json`).

Performance work must leave all of them unchanged.  After an intended
change of output, re-record them with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from voatwist.cli import main

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = HERE / "golden"
CLI_CONFIGS = (CONFIGS + [ROOT / "perfbench" / "configs" / "sl2_branch3.json"]
               + sorted((HERE / "configs").glob("*.json")))
CLI_CASES = [(cfg, cmd, fmt) for cfg in CLI_CONFIGS
             for cmd in ("run", "tables") for fmt in ("json", "csv")]


def _case_name(cfg, cmd, fmt):
    return f"{cfg.stem}.{cmd}.{fmt}"


def _main_bytes(argv):
    """(exit code, stdout bytes) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def run_config_file(cfg, tmp_dir):
    """(exit code, stdout bytes, report bytes or None) of one CLI run."""
    report = pathlib.Path(tmp_dir) / "report.out"
    if report.exists():
        report.unlink()
    code, stdout = _main_bytes(["run", str(cfg), "--output", str(report)])
    body = report.read_bytes() if report.exists() else None
    return code, stdout, body


@pytest.mark.parametrize("cfg", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_report_matches_golden(cfg, tmp_path):
    code, stdout, report = run_config_file(cfg, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[cfg.stem]
    assert stdout == (GOLDEN / f"{cfg.stem}.stdout").read_bytes()
    recorded = GOLDEN / f"{cfg.stem}.report"
    if report is None:
        assert not recorded.exists()
    else:
        assert report == recorded.read_bytes()


@pytest.mark.parametrize("cfg,cmd,fmt", CLI_CASES,
                         ids=[_case_name(*case) for case in CLI_CASES])
def test_cli_output_matches_golden(cfg, cmd, fmt):
    name = _case_name(cfg, cmd, fmt)
    code, stdout = _main_bytes([cmd, str(cfg), "--format", fmt])
    codes = json.loads((GOLDEN / "cli_exit_codes.json").read_text(encoding="utf-8"))
    assert code == codes[name]
    assert stdout == (GOLDEN / name).read_bytes()


def test_every_config_has_golden_files():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == [c.stem for c in CONFIGS]
    cli_codes = json.loads((GOLDEN / "cli_exit_codes.json").read_text(encoding="utf-8"))
    names = sorted(_case_name(*case) for case in CLI_CASES)
    assert sorted(cli_codes) == names
    assert len(set(names)) == len(CLI_CASES)


def record(tmp_dir):
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for cfg in CONFIGS:
        code, stdout, report = run_config_file(cfg, tmp_dir)
        codes[cfg.stem] = code
        (GOLDEN / f"{cfg.stem}.stdout").write_bytes(stdout)
        recorded = GOLDEN / f"{cfg.stem}.report"
        if report is None:
            recorded.unlink(missing_ok=True)
        else:
            recorded.write_bytes(report)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    cli_codes = {}
    for cfg, cmd, fmt in CLI_CASES:
        name = _case_name(cfg, cmd, fmt)
        cli_codes[name], stdout = _main_bytes([cmd, str(cfg), "--format", fmt])
        (GOLDEN / name).write_bytes(stdout)
    (GOLDEN / "cli_exit_codes.json").write_text(
        json.dumps(cli_codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
