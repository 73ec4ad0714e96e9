"""The benchmark's tracer rebinds finmet names by attribute: a name it
lists that finmet no longer has makes `perfbench/run.py --trace 1` fail
with an AttributeError.  The benchmark also reads attributes of the
objects finmet hands it, and a renamed one breaks it as silently.  These
tests read the tracer's lists and call its hooks without installing it."""

import importlib
import importlib.util
import os
from fractions import Fraction

from finmet import cli, maps
from finmet.harness import GenConfig, gen_metric
from finmet.minplus import IntMatrix

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")
_PATH = os.path.join(_PERFBENCH, "tracing.py")


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


def test_cli_runs_the_handler_its_name_is_bound_to(monkeypatch):
    """The tracer rebinds the cmd_* names after cli is imported; the
    parser must dispatch to what each name is bound to then."""
    calls = []
    monkeypatch.setattr(cli, "cmd_selftest",
                        lambda ws, args: calls.append(args.suite)
                        or (cli.EXIT_OK, [], {}))
    assert cli.main(["selftest", "--suite", "nope"]) == cli.EXIT_OK
    assert calls == ["nope"]


def test_gen_metric_hook_reads_its_config():
    """The hook on harness.gen_metric reads max_points off the first
    argument and n off the result."""
    tracer = _tracing().Tracer()
    cfg = GenConfig(seed=3, max_points=5)
    tracer._after_gen((cfg,), gen_metric(cfg), 0.0)
    assert tracer.counts["points_requested"] == 5
    assert 1 <= tracer.counts["points_generated"] <= 5


def test_workloads_read_matrix_entries(monkeypatch):
    """The workloads compare matrices through q, which reads is_inf and
    frac off every entry of an iterated IntMatrix."""
    monkeypatch.syspath_prepend(_PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert workloads.q(IntMatrix(2, [[0, 1], [None, 4]])) == [
        [Fraction(0), Fraction(1, 2)], [None, Fraction(2)]]
