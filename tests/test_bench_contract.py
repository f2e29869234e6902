"""The benchmark under perfbench/ reaches into the package by name.

perfbench/tracing.py wraps the functions and methods it lists, every
workload reads the module caches ``_act_cache`` and ``_vs_cache``, and the
cli-run workload records modules by patching ``cli.build_module``.  A
refactor that renames or removes any of these breaks benchmark runs
while every other test still passes; these tests fail at once instead.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import pathlib

from voatwist import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for layer, qual in _load_tracing().layer_functions():
        home = importlib.import_module(f"voatwist.{layer}")
        if "." in qual:
            # the tracer patches the method in the class's own namespace
            cls_name, meth = qual.split(".")
            cls = getattr(home, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(home, qual, None))
        if not found:
            missing.append(f"{layer}.{qual}")
    assert missing == []


def test_cli_builds_modules_through_build_module(monkeypatch, tmp_path):
    built = []
    inner = cli.build_module

    def recording(*args, **kwargs):
        built.append(inner(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_module", recording)
    config = tmp_path / "sl2.json"
    config.write_text(json.dumps({
        "schemaVersion": 1,
        "algebra": {"type": "A", "rank": 1},
        "level": "2",
        "module": {"cutoff": 2},
        "checks": [{"name": "axioms", "weight": 0, "ceiling": 0}],
    }))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", str(config), "--output",
                         str(tmp_path / "report.json")])
    assert code == 0
    assert len(built) == 1
    assert len(built[0]._act_cache) > 0
    assert len(built[0]._vs_cache) > 0
