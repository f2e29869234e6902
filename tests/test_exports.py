import importlib
import pkgutil

import pytest

import voatwist

MODULES = ["voatwist"] + [f"voatwist.{info.name}"
                          for info in pkgutil.iter_modules(voatwist.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
