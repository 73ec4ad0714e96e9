"""tools/ab_round.py refuses a pass count below one before it checks out
anything, times every construction of the large-n round on both sides in
one process, and names the first construction whose outputs differ."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "tools", "ab_round.py")
NAMES = {"closure", "validate", "product", "quotient", "formula", "oracle",
         "gamma", "idempotence", "factor", "round"}


@pytest.fixture
def tool(monkeypatch):
    """The tool, on two large-n instances, each side's checkout a copy of
    this tree's src/ with the change that side's rev names appended to
    its minplus.py; the two packages are dropped afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends
    spec = importlib.util.spec_from_file_location("ab_round", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module.gen, "LARGE_POOL", 2)

    def checkout(rev, into):
        shutil.copytree(os.path.join(_ROOT, "src"), os.path.join(into, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(into, "src", "finmet", "minplus.py"),
                  "a") as fh:
            fh.write(rev)
        return into

    monkeypatch.setattr(module, "checkout", checkout)
    yield module
    for key in [k for k in sys.modules
                if k.split(".")[0] in ("finmet_a", "finmet_b")]:
        del sys.modules[key]


def test_fewer_than_one_pass_exits_2_up_front(tool, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(tool, "checkout", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--a", "HEAD~1", "--b", "HEAD", "--passes", "0"])
    assert exc.value.code == 2
    assert calls == []
    assert "--passes must be at least 1" in capsys.readouterr().err


def test_equal_sides_time_every_construction(tool, capsys):
    assert tool.main(["--a", "", "--b", "\n", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])
    assert (report["instances"], report["passes"]) == (2, 2)
    ms = report["ms_per_round"]
    assert set(ms) == NAMES
    assert len(lines) == len(NAMES) + 1
    assert all(ms[name]["a"] > 0 and ms[name]["b"] > 0 for name in NAMES)
    # The median of two passes is their mean, so the round's is the sum
    # of the constructions'.
    for side in ("a", "b"):
        assert ms["round"][side] == pytest.approx(
            sum(ms[name][side] for name in NAMES - {"round"}))


def test_a_differing_output_is_named_before_any_timing(tool, monkeypatch):
    """Side b's closure returns its costs unchanged, so the round's first
    construction already differs."""
    monkeypatch.setattr(tool, "time_pass", lambda calls: pytest.fail(
        "timed a side whose outputs differ"))
    wrong = "\n\ndef minplus_closure(cost, pivots=None):\n    return cost\n"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--a", "", "--b", wrong, "--passes", "1"])
    assert exc.value.code == ("error: closure differs between a and b on "
                              "instance 0")
