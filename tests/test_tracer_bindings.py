"""The benchmark tracer (perfbench/tracer.py) rebinds names inside genturan
modules, so each of its bindings must resolve: a name deleted from a module
would otherwise break traced benchmark runs and perfbench/selftest.py."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        bindings = importlib.import_module("tracer").BINDINGS
    finally:
        sys.modules.pop("tracer", None)
    assert bindings
    missing = [
        (module, name)
        for module, name, _layer in bindings
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
