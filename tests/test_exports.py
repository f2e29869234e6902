import importlib
import json
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import voatwist

MODULES = ["voatwist"] + [f"voatwist.{info.name}"
                          for info in pkgutil.iter_modules(voatwist.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


_FOOTPRINT = """
import sys
import argparse, fractions, json
baseline = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import voatwist.cli
print(json.dumps(sorted(set(sys.modules) - baseline)))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_csv():
    # dataclasses loads inspect, dis, ast and tokenize, and csv serves one
    # output format; python -S keeps site's imports out, and what argparse,
    # fractions and json load alone is the baseline on any Python
    src = pathlib.Path(voatwist.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT, str(src)],
                         capture_output=True, text=True, check=True).stdout
    added = set(json.loads(out))
    assert "voatwist.cli" in added
    assert added & {"dataclasses", "inspect", "csv"} == set()
