"""tools/ab_round.py refuses a pass count below two before it checks out
anything, times every construction of the large-n round on both sides in
one process and puts each through the claim rule, compares records by
the public fields both sides have, and names the first construction
whose outputs differ."""

import importlib.util
import json
import os
import shutil
import sys

import pytest

from finmet.extarith import Frozen

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "tools", "ab_round.py")
NAMES = ["closure", "validate", "product", "quotient", "formula", "oracle",
         "gamma", "idempotence", "factor", "round"]


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


def test_fewer_than_two_passes_exit_2_up_front(tool, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(tool, "checkout", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        tool.main(["--a", "HEAD~1", "--b", "HEAD", "--passes", "1"])
    assert exc.value.code == 2
    assert calls == []
    assert "--passes must be at least 2" in capsys.readouterr().err


def test_equal_sides_time_every_construction(tool, capsys):
    assert tool.main(["--a", "", "--b", "\n", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = json.loads(lines[-1])
    assert (report["instances"], report["passes"]) == (2, 2)
    summ = report["summary"]
    assert list(summ) == sorted(NAMES)
    # One claim line per construction and the round, then the JSON.
    assert len(lines) == len(NAMES) + 1
    for name, line in zip(NAMES, lines):
        assert line.startswith("large-n %s (lower better): median " % name)
        assert summ[name]["change_wins"] in line
    for entry in summ.values():
        assert entry["claim"]["wins_needed"] == "2/2"
        assert all(entry[side]["median"] > 0 for side in ("parent", "change"))
        assert "regression" not in entry
    # The median of two passes is their mean, so the round's is the sum
    # of the constructions'.
    for side in ("parent", "change"):
        assert summ["round"][side]["median"] == pytest.approx(
            sum(summ[name][side]["median"] for name in NAMES[:-1]))


def test_a_differing_output_is_named_before_any_timing(tool, monkeypatch):
    """Side b's closure returns its costs unchanged, so the round's first
    construction already differs."""
    monkeypatch.setattr(tool, "time_pass", lambda calls: pytest.fail(
        "timed a side whose outputs differ"))
    wrong = "\n\ndef minplus_closure(cost, pivots=None):\n    return cost\n"
    with pytest.raises(SystemExit) as exc:
        tool.main(["--a", "", "--b", wrong, "--passes", "2"])
    assert exc.value.code == ("error: closure differs between a and b on "
                              "instance 0")


def _record(*fields):
    """A record class named FactorReport whose fields are fields, built
    from keyword values."""
    class FactorReport(Frozen):
        __slots__ = fields

        def __init__(self, **values):
            for name in fields:
                object.__setattr__(self, name, values[name])

    return FactorReport


def test_records_compare_by_the_public_fields_both_sides_have(tool):
    # One side's record has a field that the other lacks, and both keep
    # a private cache that differs: only the shared public fields count.
    old = _record("zero_diagonal", "witnesses", "failures", "_cache")
    new = _record("zero_diagonal", "witnesses", "_cache")
    a = old(zero_diagonal=("x",), witnesses={("x", "x"): "x"}, failures=(),
            _cache=None)
    b = new(zero_diagonal=("x",), witnesses={("x", "x"): "x"}, _cache=[1])
    assert tool.same([a, 1], (b, 1)) and tool.same(b, a)
    c = new(zero_diagonal=("x",), witnesses={("x", "x"): None}, _cache=[1])
    assert not tool.same(a, c)
    # A record never equals a plain tuple of its values.
    assert not tool.same(a, (("x",), {("x", "x"): "x"}, ()))
