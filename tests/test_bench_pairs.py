"""tools/bench_pairs.py runs BENCHMARK.json's plan, refuses arguments it
cannot summarise before it checks out or runs anything, keeps going past
a failed or malformed run, flags wrong runs and differing benchmarks,
applies the claim rule per metric to timed and traced pairs alike,
checks each metric's regression bound and counts each side's source
lines."""

import importlib.util
import json
import os
import subprocess

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_PATH = os.path.join(_ROOT, "tools", "bench_pairs.py")
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in _BENCH["workloads"]]


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The last --pairs given counts.
@pytest.mark.parametrize("pairs", [["--pairs", "1"], ["--pairs", "0"],
                                   ["--pairs", "6", "--pairs", "1"]])
def test_fewer_than_two_pairs_exit_2_up_front(pairs, monkeypatch, capsys):
    tool = _load()
    calls = []
    record = lambda *args, **kwargs: calls.append(args)
    monkeypatch.setattr(tool.subprocess, "run", record)
    monkeypatch.setattr(tool, "checkout", record)
    with pytest.raises(SystemExit) as exc:
        tool.main(["--parent", "HEAD~1", "--change", "HEAD", "--out",
                   "out.json", *pairs])
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


def _git(args, **kwargs):
    """`git rev-parse` of the tracked paths: the same ids for every rev."""
    return subprocess.CompletedProcess(
        args, 0, stdout="srctree\nbenchtree\nbenchblob\n")


def _main(tool, monkeypatch, tmp_path, fake_run, *argv, git=_git,
          checkout=lambda rev, into: into):
    """tool.main on revs P and C with the given fakes, run from the root
    of this checkout: its exit status and its report."""
    monkeypatch.setattr(tool.subprocess, "run", git)
    monkeypatch.setattr(tool, "checkout", checkout)
    if fake_run is not None:
        monkeypatch.setattr(tool, "run", fake_run)
    monkeypatch.chdir(_ROOT)
    out = tmp_path / "bench.json"
    status = tool.main(["--parent", "P", "--change", "C", "--out", str(out),
                        *argv])
    return status, json.loads(out.read_text())


def test_every_benchmark_workload_runs_in_order(monkeypatch, tmp_path):
    # Each workload of BENCHMARK.json, in its order, gets seeds 1..N at
    # its run_seconds, the parent first at odd seeds; N is 10 unless
    # --pairs says otherwise.
    tool = _load()
    calls = []

    def fake_run(root, workload, seed, seconds, trace=0):
        calls.append((workload, seed, os.path.basename(root), seconds, trace))
        return _result(10)

    seconds = _BENCH["run_seconds"]
    for argv, count in ((["--pairs", "3"], 3), ([], 10)):
        calls.clear()
        status, report = _main(tool, monkeypatch, tmp_path, fake_run, *argv)
        assert status == 0
        assert calls == [
            (w, s, side, seconds, 0) for w in WORKLOADS
            for s in range(1, count + 1)
            for side in (("parent", "change") if s % 2
                         else ("change", "parent"))]
        assert (report["pairs"], report["seconds"]) == (count, seconds)
        assert sorted(report["workloads"]) == sorted(WORKLOADS)
        assert report["traced"] == {}


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
    assert ("w ops_per_s (higher better): median 11 -> 11.5, change wins "
            "10/10, needs 9/10; gap +0.5 against parent IQR 1.25: claim "
            "fails") in lines


def test_summary_flags_wrong_and_failed_runs():
    tool = _load()
    runs = _pairs([10, 11, 12], [11, 12, 13])
    runs[0]["change"]["correct"] = False
    runs[2]["parent"]["failed"] = 2
    summ = tool.summary(runs, BETTER, {})
    assert summ["flagged"] == [
        {"seed": 0, "side": "change", "exit": 0, "malformed": False,
         "correct": False, "failed": 0},
        {"seed": 2, "side": "parent", "exit": 0, "malformed": False,
         "correct": True, "failed": 2}]
    # Both runs are still measured, but neither passes silently.
    assert summ["pairs_measured"] == "3/3"
    assert summ["metrics"]["ops_per_s"]["change_wins"] == "3/3"
    assert tool.report_lines("w", summ)[:2] == [
        "w seed 0 change: FLAGGED exit=0 malformed=False correct=False "
        "failed=0",
        "w seed 2 parent: FLAGGED exit=0 malformed=False correct=True "
        "failed=2"]


def test_run_records_a_nonzero_exit(monkeypatch, tmp_path):
    tool = _load()
    done = lambda *args, **kwargs: subprocess.CompletedProcess(
        args, 3, stdout="inputs: {}\nTraceback ...\n")
    monkeypatch.setattr(tool.subprocess, "run", done)
    assert tool.run(str(tmp_path), "selftest", 1, 1) == {"exit": 3}


@pytest.mark.parametrize("stdout", [
    "", "inputs: {}\nTraceback ...\n", "inputs: {}\n[1, 2]\n", "null\n"],
    ids=["empty", "not-json", "json-list", "json-null"])
def test_run_records_a_malformed_last_line(stdout, monkeypatch, tmp_path):
    # Exit 0 with no last line, or one that is not a JSON object, is a
    # malformed run with no metrics, not a crash.
    tool = _load()
    done = lambda *args, **kwargs: subprocess.CompletedProcess(
        args, 0, stdout=stdout)
    monkeypatch.setattr(tool.subprocess, "run", done)
    assert tool.run(str(tmp_path), "selftest", 1, 1) == {"exit": 0,
                                                         "malformed": True}


def test_a_malformed_run_is_flagged_and_the_pairs_go_on(monkeypatch,
                                                         tmp_path):
    # The change's run of seed 2 exits 0 without a JSON last line: every
    # pair is still in the report, that pair is left out of the
    # quartiles and is no win, and the exit status is 1.
    tool = _load()

    def fake_subprocess_run(args, **kwargs):
        if args[0] == "git":
            return _git(args)
        seed, side = int(args[args.index("--seed") + 1]), kwargs["cwd"]
        stdout = ("inputs: {}\n" if (seed, side) == (2, "change")
                  else "inputs: {}\n%s\n" % json.dumps(_result(
                      seed + (1 if side == "change" else 0))))
        return subprocess.CompletedProcess(args, 0, stdout=stdout)

    status, report = _main(tool, monkeypatch, tmp_path, None, "--pairs", "4",
                           git=fake_subprocess_run,
                           checkout=lambda rev, into: os.path.basename(into))
    assert status == 1
    for workload in WORKLOADS:
        runs = report["workloads"][workload]["runs"]
        assert [r["seed"] for r in runs] == [1, 2, 3, 4]
        assert runs[1]["change"] == {"exit": 0, "malformed": True}
        summ = report["workloads"][workload]["summary"]
        assert summ["pairs_measured"] == "3/4"
        assert summ["flagged"] == [{"seed": 2, "side": "change", "exit": 0,
                                    "malformed": True, "correct": None,
                                    "failed": None}]
        assert summ["metrics"]["ops_per_s"]["change_wins"] == "3/4"


def test_a_failed_run_keeps_the_other_pairs(monkeypatch, tmp_path):
    # One run exits non-zero: every pair is still in the report, that
    # pair is left out of the quartiles and is no win, and the exit
    # status is 1.
    tool = _load()

    def fake_run(root, workload, seed, seconds, trace=0):
        if seed == 2 and root.endswith("change"):
            return {"exit": 1}
        return _result(seed + (1 if root.endswith("change") else 0))

    status, report = _main(tool, monkeypatch, tmp_path, fake_run,
                           "--pairs", "4")
    assert status == 1
    for workload in WORKLOADS:
        runs = report["workloads"][workload]["runs"]
        assert [r["seed"] for r in runs] == [1, 2, 3, 4]
        assert runs[1]["change"] == {"exit": 1}
        summ = report["workloads"][workload]["summary"]
        assert summ["pairs_measured"] == "3/4"
        assert summ["flagged"] == [{"seed": 2, "side": "change", "exit": 1,
                                    "malformed": False, "correct": None,
                                    "failed": None}]
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
    status, report = _main(
        tool, monkeypatch, tmp_path,
        lambda root, workload, seed, seconds, trace=0:
            _result(13 if root.endswith("change") else 10),
        "--pairs", "2")
    assert status == 1
    for workload in WORKLOADS:
        summ = report["workloads"][workload]["summary"]
        assert summ["flagged"] == []
        assert summ["regressions"] == ["setup_s", "op_p50_ms", "op_tail_ms",
                                       "peak_rss_mb"]


def test_differing_benchmarks_are_flagged(monkeypatch, tmp_path, capsys):
    # The change holds another perfbench/ tree: every run is clean, but
    # the report says which benchmark each side ran, stderr says they
    # differ, and the exit status is 1.
    tool = _load()

    def git(args, **kwargs):
        ids = "srctree\n%s\nbenchblob\n" % (
            "newbench" if args[2].startswith("C:") else "benchtree")
        return subprocess.CompletedProcess(args, 0, stdout=ids)

    status, report = _main(tool, monkeypatch, tmp_path,
                           lambda *args, **kwargs: _result(10),
                           "--pairs", "2", git=git)
    assert status == 1
    assert report["git_ids"] == {
        side: {"src": "srctree", "perfbench": tree,
               "BENCHMARK.json": "benchblob"}
        for side, tree in (("parent", "benchtree"), ("change", "newbench"))}
    assert all(report["workloads"][w]["summary"]["flagged"] == []
               for w in WORKLOADS)
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "FLAGGED" in line] == [
        "FLAGGED: perfbench/ or BENCHMARK.json differs between parent and "
        "change, so the pairs compare two benchmarks"]


def test_a_failed_traced_run_is_flagged(monkeypatch, tmp_path, capsys):
    # Every timed pair is clean, but the change's traced run exits
    # non-zero: it is kept in the report, flagged on stderr, and the
    # exit status is 1.
    tool = _load()

    def fake_run(root, workload, seed, seconds, trace=0):
        if trace and root.endswith("change"):
            return {"exit": 1}
        return _result(10)

    status, report = _main(tool, monkeypatch, tmp_path, fake_run,
                           "--pairs", "2", "--traced", "w")
    assert status == 1
    assert all(report["workloads"][w]["summary"]["flagged"] == []
               for w in WORKLOADS)
    traced = report["traced"]["w"]
    assert [r["change"] for r in traced["runs"]] == [{"exit": 1}] * 2
    assert traced["summary"]["pairs_measured"] == "0/2"
    assert traced["summary"]["metrics"] == {}
    assert ("traced w seed 1 change: FLAGGED exit=1 malformed=False "
            "correct=None failed=None") in capsys.readouterr().err.splitlines()


def test_traced_pairs_alternate_and_keep_each_sides_medians(monkeypatch,
                                                            tmp_path):
    # --traced runs N pairs, seeds 1..N, the parent first at odd seeds,
    # and puts each layer through the claim rule, its better direction
    # from per_layer, over the pairs where both runs exited 0.
    tool = _load()
    calls = []

    def fake_run(root, workload, seed, seconds, trace=0):
        side = os.path.basename(root)
        if trace:
            calls.append((seed, side))
            if (seed, side) == (2, "parent"):
                return {"exit": 1}
            layers = {"minplus.closure_s":
                      {"value": seed + (10 if side == "change" else 0)},
                      "harness.gen_size_yield": {"value": 0.5}}
            return dict(_result(10), metrics=layers)
        return _result(10)

    status, report = _main(tool, monkeypatch, tmp_path, fake_run,
                           "--pairs", "4", "--traced", "w")
    assert status == 1
    assert calls == [(1, "parent"), (1, "change"), (2, "change"),
                     (2, "parent"), (3, "parent"), (3, "change"),
                     (4, "change"), (4, "parent")]
    traced = report["traced"]["w"]
    assert [(r["seed"], r["first"]) for r in traced["runs"]] == [
        (1, "parent"), (2, "change"), (3, "parent"), (4, "change")]
    summ = traced["summary"]
    assert summ["pairs_measured"] == "3/4"
    # Each side's quartiles are over seeds 1, 3 and 4 only.
    closure = summ["metrics"]["minplus.closure_s"]
    assert closure["parent"] == {"q1": 1, "median": 3, "q3": 4}
    assert closure["change"] == {"q1": 11, "median": 13, "q3": 14}
    assert closure["better"] == "lower" and closure["change_wins"] == "0/4"
    assert "regression" not in closure
    assert summ["metrics"]["harness.gen_size_yield"]["better"] == "higher"


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

    status, report = _main(tool, monkeypatch, tmp_path,
                           lambda *args, **kwargs: _result(10),
                           "--pairs", "2", checkout=checkout)
    assert status == 0
    return report


def test_src_lines_are_counted_per_side(monkeypatch, tmp_path):
    # Each side's checkout holds its own src/finmet; only its .py files
    # count, as wc -l counts them, and a last line without a newline is
    # not counted.
    files = {"parent": {"a.py": "1\n2\n3\n", "b.py": "x\ny\n",
                        "notes.txt": "n\n" * 9},
             "change": {"a.py": "1\n2\n", "b.py": "x\ny\nz"}}
    report = _line_report(files, monkeypatch, tmp_path)
    assert report["src_lines"] == {"parent": 5, "change": 4}
    assert report["git_ids"]["change"]["src"] == "srctree"


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
