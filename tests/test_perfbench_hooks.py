"""The benchmark's tracer rebinds finmet names by attribute: a name it
lists that finmet no longer has makes `perfbench/run.py --trace 1` fail
with an AttributeError.  These tests read its lists without installing
it."""

import importlib
import importlib.util
import os

from finmet import cli, maps

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    tracing = _tracing()
    for mod in tracing.MODULES:
        importlib.import_module("finmet." + mod)
    missing = [(mod, fname) for mod, fname, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(
                   "finmet." + mod), fname, None))]
    assert not missing


def test_traced_cli_names_exist():
    tracing = _tracing()
    assert not [f for f in tracing.RENDER
                if not callable(getattr(cli, f, None))]
    assert any(name.startswith("cmd_") for name in vars(cli))
    assert "__init__" in vars(maps.FinMap)
