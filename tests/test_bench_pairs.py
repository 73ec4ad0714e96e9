"""tools/bench_pairs.py refuses arguments it cannot summarise before it
checks out or runs anything, keeps going past a failed run, flags wrong
runs, applies the claim rule per metric, checks each metric's
regression bound, alternates its traced pairs and counts each side's
source lines."""

import importlib.util
import json
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


def _result(ops_per_s, correct=True, failed=0, exit=0):
    """A run as tools/bench_pairs.py records it, every end-to-end metric
    at the value ops_per_s."""
    names = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
    return {"exit": exit, "correct": correct, "attempted": 10,
            "failed": failed,
            "metrics": {n: {"value": ops_per_s, "unit": "u"} for n in names}}


BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower", "setup_s": "lower",
          "op_tail_ms": "lower", "peak_rss_mb": "lower"}


def _pairs(parent, change):
    return [{"seed": s, "first": "parent", "parent": _result(p),
             "change": _result(c)}
            for s, (p, c) in enumerate(zip(parent, change))]


def test_claim_rule_needs_nine_wins_in_ten_and_a_gap_above_the_iqr():
    tool = _load()
    parent = [10, 11, 10, 12, 11, 10, 11, 12, 10, 11]
    # Nine wins by 3, one loss: the median gap of 2.5 is above the
    # parent's IQR of 1.25 (quartiles 10 and 11.25).
    change = [p + 3 for p in parent[:9]] + [parent[9] - 1]
    summ = tool.summary(_pairs(parent, change), BETTER, {})
    ops, p50 = summ["metrics"]["ops_per_s"], summ["metrics"]["op_p50_ms"]
    assert ops["change_wins"] == "9/10"
    assert ops["claim"]["wins_needed"] == "9/10"
    assert ops["claim"]["median_gap"] == 2.5
    assert ops["claim"]["parent_iqr"] == 1.25
    assert ops["claim"]["holds"]
    # The same numbers, lower better: the change loses nine pairs.
    assert p50["change_wins"] == "1/10" and not p50["claim"]["holds"]
    # Eight wins do not make a claim, however large the gap.
    change = [p + 3 for p in parent[:8]] + [p - 1 for p in parent[8:]]
    ops = tool.summary(_pairs(parent, change), BETTER,
                       {})["metrics"]["ops_per_s"]
    assert ops["change_wins"] == "8/10" and not ops["claim"]["holds"]
    # Ten wins by less than the IQR do not either.
    change = [p + 0.5 for p in parent]
    ops = tool.summary(_pairs(parent, change), BETTER,
                       {})["metrics"]["ops_per_s"]
    assert ops["change_wins"] == "10/10" and not ops["claim"]["holds"]
    lines = tool.report_lines("w", tool.summary(_pairs(parent, change),
                                                 BETTER, {}))
    assert ("w ops_per_s (higher better): change wins 10/10, needs 9/10; "
            "median gap +0.5 against parent IQR 1.25: claim fails") in lines


def test_summary_flags_wrong_and_failed_runs():
    tool = _load()
    runs = _pairs([10, 11, 12], [11, 12, 13])
    runs[0]["change"]["correct"] = False
    runs[2]["parent"]["failed"] = 2
    summ = tool.summary(runs, BETTER, {})
    assert summ["flagged"] == [
        {"seed": 0, "side": "change", "exit": 0, "correct": False,
         "failed": 0},
        {"seed": 2, "side": "parent", "exit": 0, "correct": True,
         "failed": 2}]
    # Both runs are still measured, but neither passes silently.
    assert summ["pairs_measured"] == "3/3"
    assert summ["metrics"]["ops_per_s"]["change_wins"] == "3/3"
    assert tool.report_lines("w", summ)[:2] == [
        "w seed 0 change: FLAGGED exit=0 correct=False failed=0",
        "w seed 2 parent: FLAGGED exit=0 correct=True failed=2"]


def test_run_records_a_nonzero_exit(monkeypatch, tmp_path):
    tool = _load()
    done = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 3, stdout="inputs: {}\nTraceback ...\n")
    monkeypatch.setattr(tool.subprocess, "run", done)
    assert tool.run(str(tmp_path), "selftest", 1, 1) == {"exit": 3}


def test_a_failed_run_keeps_the_other_pairs(monkeypatch, tmp_path):
    # One run exits non-zero: every pair is still in the report, that
    # pair is left out of the quartiles and is no win, and the exit
    # status is 1.
    tool = _load()
    rev = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 0, stdout="tree\n")
    monkeypatch.setattr(tool.subprocess, "run", rev)
    monkeypatch.setattr(tool, "checkout", lambda rev, into: into)

    def fake_run(root, workload, seed, seconds, trace=0):
        if seed == 2 and root.endswith("change"):
            return {"exit": 1}
        return _result(seed + (1 if root.endswith("change") else 0))

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.chdir(os.path.dirname(os.path.dirname(_PATH)))
    out = tmp_path / "bench.json"
    status = tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                        "--workload", "w", "--pairs", "4",
                        "--first-seed", "1"])
    assert status == 1
    report = json.loads(out.read_text())["workloads"]["w"]
    assert [r["seed"] for r in report["runs"]] == [1, 2, 3, 4]
    assert report["runs"][1]["change"] == {"exit": 1}
    summ = report["summary"]
    assert summ["pairs_measured"] == "3/4"
    assert summ["flagged"] == [{"seed": 2, "side": "change", "exit": 1,
                                "correct": None, "failed": None}]
    assert summ["metrics"]["ops_per_s"]["change_wins"] == "3/4"


def test_regression_bound_is_checked_per_metric(monkeypatch, tmp_path):
    tool = _load()
    bounds = {"ops_per_s": 0.2, "op_p50_ms": 0.2, "op_tail_ms": 0.25}
    # Every metric at 12.5 on the change side, 25 % above the parent.
    summ = tool.summary(_pairs([10] * 4, [12.5] * 4), BETTER, bounds)
    metrics = summ["metrics"]
    assert metrics["op_p50_ms"]["regression"] == {
        "bound": 0.2, "worse_by": 0.25, "exceeds": True}
    # 25 % worse is not above a bound of 25 %; higher ops_per_s is better.
    assert not metrics["op_tail_ms"]["regression"]["exceeds"]
    assert metrics["ops_per_s"]["regression"]["worse_by"] == -0.25
    assert "regression" not in metrics["setup_s"]
    assert summ["regressions"] == ["op_p50_ms"]
    assert summ["flagged"] == []
    assert ("w op_p50_ms: REGRESSION, change median 12.5 is worse than "
            "parent median 10 by 25.0%, above the bound of 20.0%"
            ) in tool.report_lines("w", summ)

    # main reads the bounds from BENCHMARK.json and exits 1 on a
    # regression even when every run is correct.
    rev = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 0, stdout="tree\n")
    monkeypatch.setattr(tool.subprocess, "run", rev)
    monkeypatch.setattr(tool, "checkout", lambda rev, into: into)
    monkeypatch.setattr(tool, "run", lambda root, workload, seed, seconds,
                        trace=0: _result(13 if root.endswith("change")
                                         else 10))
    monkeypatch.chdir(os.path.dirname(os.path.dirname(_PATH)))
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                      "--workload", "w", "--pairs", "2",
                      "--first-seed", "1"]) == 1
    summ = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summ["flagged"] == []
    assert summ["regressions"] == ["setup_s", "op_p50_ms", "op_tail_ms",
                                   "peak_rss_mb"]


def test_a_failed_traced_run_is_flagged(monkeypatch, tmp_path, capsys):
    # Every timed pair is clean, but the change's traced run exits
    # non-zero: it is kept in the report, flagged on stderr, and the
    # exit status is 1.
    tool = _load()
    rev = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 0, stdout="tree\n")
    monkeypatch.setattr(tool.subprocess, "run", rev)
    monkeypatch.setattr(tool, "checkout", lambda rev, into: into)

    def fake_run(root, workload, seed, seconds, trace=0):
        if trace and root.endswith("change"):
            return {"exit": 1}
        return _result(10)

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.chdir(os.path.dirname(os.path.dirname(_PATH)))
    out = tmp_path / "bench.json"
    status = tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                        "--workload", "w", "--pairs", "2",
                        "--first-seed", "1", "--traced", "w"])
    assert status == 1
    report = json.loads(out.read_text())
    assert report["workloads"]["w"]["summary"]["flagged"] == []
    traced = report["traced"]["w"]
    assert [r["change"] for r in traced["runs"]] == [{"exit": 1}] * 3
    assert traced["medians"]["change"] == {}
    assert ("traced w seed 1 change: FLAGGED exit=1 correct=None "
            "failed=None") in capsys.readouterr().err.splitlines()


def test_traced_pairs_alternate_and_keep_each_sides_medians(monkeypatch,
                                                            tmp_path):
    # --traced runs three pairs, seeds 1-3, the parent first on the
    # first and third, and keeps each layer's median per side over the
    # runs that exited 0.
    tool = _load()
    rev = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 0, stdout="tree\n")
    monkeypatch.setattr(tool.subprocess, "run", rev)
    monkeypatch.setattr(tool, "checkout", lambda rev, into: into)
    calls = []

    def fake_run(root, workload, seed, seconds, trace=0):
        side = "change" if root.endswith("change") else "parent"
        if trace:
            calls.append((seed, side))
            if (seed, side) == (2, "parent"):
                return {"exit": 1}
            layer = {"value": seed + (10 if side == "change" else 0)}
            return dict(_result(10), metrics={"layer_s": layer})
        return _result(10)

    monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.chdir(os.path.dirname(os.path.dirname(_PATH)))
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                      "--workload", "w", "--pairs", "2", "--first-seed", "5",
                      "--traced", "w"]) == 1
    assert calls == [(1, "parent"), (1, "change"), (2, "change"),
                     (2, "parent"), (3, "parent"), (3, "change")]
    traced = json.loads(out.read_text())["traced"]["w"]
    assert [(r["seed"], r["first"]) for r in traced["runs"]] == [
        (1, "parent"), (2, "change"), (3, "parent")]
    # The parent's median is over seeds 1 and 3 only.
    assert traced["medians"] == {"parent": {"layer_s": 2},
                                 "change": {"layer_s": 12}}


def _line_report(files, monkeypatch, tmp_path):
    """The report of a two-pair run whose sides hold the given
    src/finmet files: side name to file name to text."""
    tool = _load()

    def checkout(rev, into):
        pkg = os.path.join(into, "src", "finmet")
        os.makedirs(pkg)
        for name, text in files[os.path.basename(into)].items():
            with open(os.path.join(pkg, name), "w") as fh:
                fh.write(text)
        return into

    rev = lambda *args, **kwargs: tool.subprocess.CompletedProcess(
        args, 0, stdout="tree\n")
    monkeypatch.setattr(tool.subprocess, "run", rev)
    monkeypatch.setattr(tool, "checkout", checkout)
    monkeypatch.setattr(tool, "run", lambda root, workload, seed, seconds,
                        trace=0: _result(10))
    monkeypatch.chdir(os.path.dirname(os.path.dirname(_PATH)))
    out = tmp_path / "bench.json"
    assert tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                      "--workload", "w", "--pairs", "2",
                      "--first-seed", "1"]) == 0
    return json.loads(out.read_text())


def test_src_lines_are_counted_per_side(monkeypatch, tmp_path):
    # Each side's checkout holds its own src/finmet; only its .py files
    # count, as wc -l counts them, and a last line without a newline is
    # not counted.
    files = {"parent": {"a.py": "1\n2\n3\n", "b.py": "x\ny\n",
                        "notes.txt": "n\n" * 9},
             "change": {"a.py": "1\n2\n", "b.py": "x\ny\nz"}}
    report = _line_report(files, monkeypatch, tmp_path)
    assert report["src_lines"] == {"parent": 5, "change": 4}
    assert report["src_tree"] == {"parent": "tree", "change": "tree"}


_DOCUMENTED = '''"""Module
docstring."""

# a comment
class C:
    """Class docstring."""

    def f(self):
        \'\'\'Function
        docstring.\'\'\'
        x = 1  # code with a comment
        s = """not a
        docstring"""
        return x, s
'''


def test_code_lines_are_counted_per_side(monkeypatch, tmp_path):
    # Blank lines, lines holding only a comment and the lines of module,
    # class and function docstrings are not code; a string that is not
    # the first statement of its body is, and so is a last line without a
    # newline.  Only .py files count.
    files = {"parent": {"a.py": _DOCUMENTED, "notes.txt": "n = 1\n" * 9},
             "change": {"a.py": "# only\n\n    # comments\n",
                        "b.py": "x = 1\ny = 2"}}
    report = _line_report(files, monkeypatch, tmp_path)
    assert report["code_lines"] == {"parent": 6, "change": 2}
    assert report["src_lines"] == {"parent": 14, "change": 4}
