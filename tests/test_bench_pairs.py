"""tools/bench_pairs.py refuses arguments it cannot summarise before it
checks out or runs anything."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_pairs.py")


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", [["1"], ["0"], ["6", "1"]])
def test_fewer_than_two_pairs_exit_2_up_front(pairs, monkeypatch, capsys):
    tool = _load()
    calls = []
    record = lambda *args, **kwargs: calls.append(args)
    monkeypatch.setattr(tool.subprocess, "run", record)
    monkeypatch.setattr(tool, "checkout", record)
    argv = ["--parent", "HEAD~1", "--change", "HEAD", "--out", "out.json"]
    for k, n in enumerate(pairs):
        argv += ["--workload", "w%d" % k, "--pairs", n, "--first-seed", "1"]
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert calls == []
    assert "--pairs must be at least 2" in capsys.readouterr().err
