"""Alternating parent/change pairs of the benchmark, summarised as JSON.

Usage, from the root of a finmet checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH.json
        [--pairs N] [--traced WORKLOAD] ...

The plan is BENCHMARK.json's: every workload listed there, in the listed
order, each run for its run_seconds.  Each side is a fresh `git archive`
of its revision in a temporary directory, run with
PYTHONDONTWRITEBYTECODE=1, so neither side holds a bytecode cache.  Every
workload gets N pairs (default 10): pair s runs `perfbench/run.py` with
seed s, for s = 1..N, on both sides, the parent first at odd s and the
change first at even s.  `--traced W` adds N traced pairs of workload W,
seeds and order as above.

The report keeps the final JSON line and the exit code of every run.  A
run that exits non-zero, or exits 0 without a JSON object as its last
line (recorded as "malformed"), has no metrics: its pair is left out of
the quartiles, counts as no win, and the remaining runs go on.  Every
timing goes through one rule per metric, compare(): each side's median
and quartiles (statistics.quantiles(values, n=4)) over the pairs where
both runs have metrics, the pairs the change won out of all pairs run,
and the claim rule: the change wins at least nine tenths of the pairs
run, and its median beats the parent's by more than the parent's
interquartile range.  The metric's better direction comes from
BENCHMARK.json, end_to_end for a timed workload and per_layer for a
traced one.  An end-to-end metric is also held to its bound there: the
change's median may be worse than the parent's by at most that share of
the parent's median.  The summary flags every run that exited non-zero,
was malformed, reported "correct": false or failed any operation.
stderr gets a line per flagged run, per metric's claim rule and per
broken bound.

Per side, the report keeps the git ids of src/, perfbench/ and
BENCHMARK.json, which name the code and the benchmark measured whether
or not the revision outlives the run (a `git stash create` of
uncommitted work).  Sides whose perfbench/ or BENCHMARK.json differ run
two different benchmarks, so their pairs compare nothing; the tool says
so in one stderr line.  Beside the ids, src_lines is the line count of
each side's src/finmet/*.py, and code_lines the lines of those files
that are not blank, not a comment alone and not inside a docstring, so
that a claim of less code sits next to its numbers, and deleted
comments or docstrings do not count as less code.  The exit status is 1
if any run was flagged, any metric broke its bound or the benchmarks
differ.
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

SIDES = ("parent", "change")
TRACKED = ("src", "perfbench", "BENCHMARK.json")


def checkout(rev, into):
    """A fresh copy of the files of rev under into."""
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def git_ids(rev):
    """The git object ids of the TRACKED paths at rev, by path."""
    out = subprocess.run(
        ["git", "rev-parse"] + ["%s:%s" % (rev, path) for path in TRACKED],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    return dict(zip(TRACKED, out.split()))


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
    """The exit code of one benchmark run in root, under "exit", and, if
    it exited 0, the fields of its final JSON line, or "malformed": true
    when that line is missing or not a JSON object."""
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
        try:
            result.update(json.loads(out.stdout.strip().splitlines()[-1]))
        except (IndexError, TypeError, ValueError):
            result["malformed"] = True
    return result


def run_pairs(roots, workload, count, seconds, trace):
    """count pairs of runs, seeds 1 to count, the parent first at odd
    seeds and the change first at even ones."""
    runs = []
    for seed in range(1, count + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = res = run(roots[side], workload, seed, seconds, trace)
            print(workload, seed, side, json.dumps(
                {k: v for k, v in res.items() if k != "metrics"}),
                file=sys.stderr, flush=True)
        runs.append(pair)
    return runs


def flagged(runs):
    """Each run that exited non-zero, was malformed, reported "correct":
    false or failed an operation.  A run with no JSON result has no
    "correct"."""
    return [{"seed": r["seed"], "side": side, "exit": r[side]["exit"],
             "malformed": r[side].get("malformed", False),
             "correct": r[side].get("correct"),
             "failed": r[side].get("failed")}
            for r in runs for side in SIDES
            if r[side].get("correct") is not True or r[side]["failed"] > 0]


def compare(parent, change, better, pairs, bound=None):
    """The rule for one metric of an A/B timing.  parent and change hold
    its values, one per side of each pair measured, and pairs counts the
    pairs run.  The result holds each side's median and quartiles, the
    change's wins (a tie or a pair not measured is no win), and the claim
    rule: the change wins at least nine tenths of the pairs run, and its
    median beats the parent's by more than the parent's interquartile
    range (IQR).  With a bound, it also holds how much worse the change's
    median is than the parent's, as a share of the parent's median, and
    whether that exceeds the bound."""
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    entry = {"better": better, "change_wins": "%d/%d" % (wins, pairs)}
    for side, values in zip(SIDES, (parent, change)):
        q1, median, q3 = statistics.quantiles(values, n=4)
        entry[side] = {"median": median, "q1": q1, "q3": q3}
    gap = entry["parent"]["median"] - entry["change"]["median"]
    gap = gap if lower else -gap
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    entry["claim"] = {"wins_needed": "%d/%d" % (-(-9 * pairs // 10), pairs),
                      "median_gap": gap, "parent_iqr": iqr,
                      "holds": 10 * wins >= 9 * pairs and gap > iqr}
    if bound is not None:
        base = abs(entry["parent"]["median"])
        worse_by = -gap / base if base else (math.inf if gap < 0 else 0.0)
        entry["regression"] = {"bound": bound, "worse_by": worse_by,
                               "exceeds": worse_by > bound}
    return entry


def summary(runs, better, bounds):
    """The flagged runs and, through compare(), each metric in better
    that every measured pair has, where a pair is measured when both its
    runs have metrics.  A metric with an entry in bounds is held to it,
    and the metrics that break their bound are listed under
    "regressions"."""
    measured = [r for r in runs if all("metrics" in r[s] for s in SIDES)]
    out = {"flagged": flagged(runs),
           "pairs_measured": "%d/%d" % (len(measured), len(runs)),
           "metrics": {}, "regressions": []}
    if len(measured) < 2:
        return out
    for name, direction in better.items():
        if any(name not in r[s]["metrics"] for r in measured for s in SIDES):
            continue
        values = [[r[s]["metrics"][name]["value"] for r in measured]
                  for s in SIDES]
        out["metrics"][name] = entry = compare(*values, direction, len(runs),
                                               bounds.get(name))
        if entry.get("regression", {}).get("exceeds"):
            out["regressions"].append(name)
    return out


def metric_lines(prefix, metrics):
    """One line per metric's claim rule and per metric that broke its
    bound, each metric as compare() gives it."""
    lines = []
    for name, m in metrics.items():
        c = m["claim"]
        lines.append(
            "%s %s (%s better): median %.6g -> %.6g, change wins %s, needs "
            "%s; gap %+.6g against parent IQR %.6g: claim %s"
            % (prefix, name, m["better"], m["parent"]["median"],
               m["change"]["median"], m["change_wins"], c["wins_needed"],
               c["median_gap"], c["parent_iqr"],
               "holds" if c["holds"] else "fails"))
        if m.get("regression", {}).get("exceeds"):
            lines.append(
                "%s %s: REGRESSION, change median %.6g is worse than parent "
                "median %.6g by %.1f%%, above the bound of %.1f%%"
                % (prefix, name, m["change"]["median"], m["parent"]["median"],
                   100 * m["regression"]["worse_by"],
                   100 * m["regression"]["bound"]))
    return lines


def report_lines(workload, summ):
    """One stderr line per flagged run, then the metric lines."""
    return ["%s seed %d %s: FLAGGED exit=%d malformed=%s correct=%s "
            "failed=%s" % (workload, f["seed"], f["side"], f["exit"],
                           f["malformed"], f["correct"], f["failed"])
            for f in summ["flagged"]] + metric_lines(workload,
                                                     summ["metrics"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", action="append", default=[])
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, as the quartiles need two runs")

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    revs = {"parent": args.parent, "change": args.change}
    ids = {side: git_ids(rev) for side, rev in revs.items()}
    report = {"parent": args.parent, "change": args.change, "git_ids": ids,
              "pairs": args.pairs, "seconds": bench["run_seconds"],
              "python": sys.version.split()[0], "cpus": os.cpu_count(),
              "workloads": {}, "traced": {}}
    status = 0
    if any(ids["parent"][p] != ids["change"][p] for p in TRACKED[1:]):
        status = 1
        print("FLAGGED: perfbench/ or BENCHMARK.json differs between parent "
              "and change, so the pairs compare two benchmarks",
              file=sys.stderr, flush=True)
    end_to_end = bench["end_to_end"]
    timed = ({m["name"]: m["better"] for m in end_to_end},
             {m["name"]: m["bound"] for m in end_to_end if "bound" in m})
    traced = ({m["name"]: m["better"] for m in bench["per_layer"]}, {})
    plan = ([("workloads", w["name"], 0, timed) for w in bench["workloads"]]
            + [("traced", w, 1, traced) for w in args.traced])
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: checkout(rev, os.path.join(tmp, side))
                 for side, rev in revs.items()}
        report["src_lines"] = {side: src_lines(root)
                               for side, root in roots.items()}
        report["code_lines"] = {side: code_lines(root)
                                for side, root in roots.items()}
        for key, workload, trace, (better, bounds) in plan:
            runs = run_pairs(roots, workload, args.pairs, bench["run_seconds"],
                             trace)
            summ = summary(runs, better, bounds)
            if summ["flagged"] or summ["regressions"]:
                status = 1
            for line in report_lines(("traced " if trace else "") + workload,
                                     summ):
                print(line, file=sys.stderr, flush=True)
            report[key][workload] = {"runs": runs, "summary": summ}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
