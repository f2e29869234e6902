"""Byte-identity gate: `voatwist run` on every file in configs/.

Each config's exit code, stdout and report bytes are compared with the
files recorded under tests/golden/.  Performance work must leave all three
unchanged.  After an intended change of output, re-record them with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from voatwist.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run_config_file(cfg, tmp_dir):
    """(exit code, stdout bytes, report bytes or None) of one CLI run."""
    report = pathlib.Path(tmp_dir) / "report.out"
    if report.exists():
        report.unlink()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", str(cfg), "--output", str(report)])
    body = report.read_bytes() if report.exists() else None
    return code, out.getvalue().encode("utf-8"), body


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


def test_every_config_has_golden_files():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert sorted(codes) == [c.stem for c in CONFIGS]


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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
