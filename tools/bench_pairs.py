"""Alternating parent/change pairs of the benchmark, summarised as JSON.

Usage, from the root of a finmet checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH.json
        [--workload NAME --pairs N --first-seed S] ... [--seconds 20]
        [--traced large-n]

Each side is a fresh `git archive` of its revision in a temporary
directory, run with PYTHONDONTWRITEBYTECODE=1, so neither side holds a
bytecode cache.  Pair p of a workload runs `perfbench/run.py` with seed
first-seed + p on both sides, the parent first on even p and the change
first on odd p.  The output keeps the final JSON line and the exit code
of every run and, per side and end-to-end metric, the median and
quartiles (statistics.quantiles(values, n=4)) and the pairs the change
won.  A run that exits non-zero is recorded with its exit code and no
metrics, its pair is left out of the quartiles and counts as no win,
and the remaining runs go on.  The summary flags every run that exited
non-zero, reported "correct": false or failed any operation.  Per
metric it also applies the claim rule, printed to stderr: the change
wins at least nine tenths of the pairs run, and its median beats the
parent's by more than the parent's interquartile range.  It also
checks the metric's regression bound from BENCHMARK.json: the change's
median may be worse than the parent's by at most that share of the
parent's median.  `--traced W` adds three traced pairs of workload W,
seeds 1-3, alternating as above and flagged by the same rule, and keeps
each traced layer's median per side.  The exit status is 1 if any run,
traced or not, was flagged or any metric broke its bound.  Beside each
side's tree of src/ the report keeps src_lines, the line count of its
src/finmet/*.py, and code_lines, the lines of those files that are not
blank, not a comment alone and not inside a docstring, so that a claim
of less code sits next to its numbers, and deleted comments or
docstrings do not count as less code.
"""

import argparse
import ast
import glob
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile


def checkout(rev, into):
    """A fresh copy of the files of rev under into."""
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def src_lines(root):
    """The number of lines of src/finmet/*.py under root, as wc -l counts
    them."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "finmet", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def code_lines(root):
    """The number of lines of src/finmet/*.py under root that are not
    blank, not a comment alone and not inside a module, class or
    function docstring."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    total = 0
    for path in glob.glob(os.path.join(root, "src", "finmet", "*.py")):
        with open(path, "rb") as fh:
            source = fh.read()
        docs = set()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, owners)
                    and ast.get_docstring(node, False) is not None):
                doc = node.body[0]
                docs.update(range(doc.lineno, doc.end_lineno + 1))
        total += sum(1 for k, line in enumerate(source.splitlines(), 1)
                     if k not in docs and line.strip()
                     and not line.lstrip().startswith(b"#"))
    return total


def run(root, workload, seed, seconds, trace=0):
    """The exit code of one benchmark run in root, under "exit", and,
    if it exited 0, the fields of its final JSON line."""
    for dirpath, dirnames, _ in os.walk(root):
        if "__pycache__" in dirnames:
            sys.exit("error: bytecode cache in %s" % dirpath)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    result = {"exit": out.returncode}
    if out.returncode == 0:
        result.update(json.loads(out.stdout.strip().splitlines()[-1]))
    return result


def run_pairs(roots, workload, first, count, seconds, trace=0):
    """count pairs of runs, seeds first to first + count - 1, the parent
    first in the first, third, ... pair and the change first in the
    others."""
    runs = []
    for p in range(count):
        seed = first + p
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = res = run(roots[side], workload, seed, seconds, trace)
            print(workload, seed, side, json.dumps(
                res["metrics"].get("ops_per_s") if res["exit"] == 0
                else res), file=sys.stderr, flush=True)
        runs.append(pair)
    return runs


def medians(runs):
    """Per side, each metric's median over the runs that exited 0."""
    out = {}
    for side in ("parent", "change"):
        ok = [r[side]["metrics"] for r in runs if r[side]["exit"] == 0]
        out[side] = {name: statistics.median(m[name]["value"] for m in ok)
                     for name in (ok[0] if ok else ())}
    return out


def flagged(runs):
    """Each run that exited non-zero, reported "correct": false or
    failed an operation."""
    return [{"seed": r["seed"], "side": side, "exit": r[side]["exit"],
             "correct": r[side].get("correct"),
             "failed": r[side].get("failed")}
            for r in runs for side in ("parent", "change")
            if r[side]["exit"] != 0 or r[side]["correct"] is not True
            or r[side]["failed"] > 0]


def claim(wins, pairs, parent, change, lower):
    """The claim rule: the change wins at least nine tenths of the pairs
    run, and its median beats the parent's by more than the parent's
    interquartile range (IQR)."""
    gap = (parent["median"] - change["median"] if lower
           else change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    return {"wins_needed": "%d/%d" % (-(-9 * pairs // 10), pairs),
            "median_gap": gap, "parent_iqr": iqr,
            "holds": 10 * wins >= 9 * pairs and gap > iqr}


def regression(parent, change, lower, bound):
    """How much worse the change's median is than the parent's, as a
    share of the parent's median, and whether that exceeds bound."""
    gap = (change["median"] - parent["median"] if lower
           else parent["median"] - change["median"])
    base = abs(parent["median"])
    worse_by = gap / base if base else (math.inf if gap > 0 else 0.0)
    return {"bound": bound, "worse_by": worse_by, "exceeds": worse_by > bound}


def summary(runs, better, bounds):
    """The flagged runs and, per metric, each side's median and quartiles
    over the pairs where both runs exited 0, and the change's wins and
    the claim rule over all pairs run: a tie or a failed pair is no
    win.  A metric with an entry in bounds also gets its regression
    check, and the metrics that break it are listed under
    "regressions"."""
    measured = [r for r in runs
                if r["parent"]["exit"] == 0 and r["change"]["exit"] == 0]
    out = {"flagged": flagged(runs),
           "pairs_measured": "%d/%d" % (len(measured), len(runs)),
           "metrics": {}, "regressions": []}
    if len(measured) < 2:
        return out
    for name in measured[0]["parent"]["metrics"]:
        values = {side: [r[side]["metrics"][name]["value"] for r in measured]
                  for side in ("parent", "change")}
        lower = better[name] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        entry = {"better": better[name],
                 "change_wins": "%d/%d" % (wins, len(runs))}
        for side, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["claim"] = claim(wins, len(runs), entry["parent"],
                               entry["change"], lower)
        if name in bounds:
            entry["regression"] = regression(entry["parent"], entry["change"],
                                             lower, bounds[name])
            if entry["regression"]["exceeds"]:
                out["regressions"].append(name)
        out["metrics"][name] = entry
    return out


def flag_lines(workload, flags):
    """One stderr line per flagged run."""
    return ["%s seed %d %s: FLAGGED exit=%d correct=%s failed=%s"
            % (workload, f["seed"], f["side"], f["exit"], f["correct"],
               f["failed"]) for f in flags]


def report_lines(workload, summ):
    """One stderr line per flagged run, per metric's claim rule and per
    metric that broke its regression bound."""
    lines = flag_lines(workload, summ["flagged"])
    for name, m in summ["metrics"].items():
        c = m["claim"]
        lines.append(
            "%s %s (%s better): change wins %s, needs %s; median gap %+.6g "
            "against parent IQR %.6g: claim %s"
            % (workload, name, m["better"], m["change_wins"], c["wins_needed"],
               c["median_gap"], c["parent_iqr"],
               "holds" if c["holds"] else "fails"))
    for name in summ["regressions"]:
        m = summ["metrics"][name]
        lines.append(
            "%s %s: REGRESSION, change median %.6g is worse than parent "
            "median %.6g by %.1f%%, above the bound of %.1f%%"
            % (workload, name, m["change"]["median"], m["parent"]["median"],
               100 * m["regression"]["worse_by"],
               100 * m["regression"]["bound"]))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", action="append", type=int, required=True)
    ap.add_argument("--first-seed", action="append", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--traced", action="append", default=[])
    args = ap.parse_args(argv)
    if not len(args.workload) == len(args.pairs) == len(args.first_seed):
        ap.error("give --pairs and --first-seed once per --workload")
    if min(args.pairs) < 2:
        ap.error("--pairs must be at least 2, as the quartiles need two runs")

    # The tree of src/ names the code measured, whether or not rev
    # outlives the run (a `git stash create` of uncommitted work).
    src_tree = {side: subprocess.run(
        ["git", "rev-parse", "%s:src" % rev], check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))}
    report = {"parent": args.parent, "change": args.change,
              "src_tree": src_tree,
              "seconds": args.seconds, "python": sys.version.split()[0],
              "cpus": os.cpu_count(), "workloads": {}, "traced": {}}
    with open("BENCHMARK.json") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: checkout(rev, os.path.join(tmp, side))
                 for side, rev in (("parent", args.parent),
                                   ("change", args.change))}
        report["src_lines"] = {side: src_lines(root)
                               for side, root in roots.items()}
        report["code_lines"] = {side: code_lines(root)
                                for side, root in roots.items()}
        for workload, count, first in zip(args.workload, args.pairs,
                                          args.first_seed):
            runs = run_pairs(roots, workload, first, count, args.seconds)
            summ = summary(runs, better, bounds)
            if summ["flagged"] or summ["regressions"]:
                status = 1
            for line in report_lines(workload, summ):
                print(line, file=sys.stderr, flush=True)
            report["workloads"][workload] = {"runs": runs, "summary": summ}
        for workload in args.traced:
            runs = run_pairs(roots, workload, 1, 3, args.seconds, trace=1)
            report["traced"][workload] = {"runs": runs,
                                          "medians": medians(runs)}
            flags = flagged(runs)
            if flags:
                status = 1
            for line in flag_lines("traced " + workload, flags):
                print(line, file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
