"""Alternating parent/change pairs of the benchmark, summarised as JSON.

Usage, from the root of a finmet checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH.json
        [--workload NAME --pairs N --first-seed S] ... [--seconds 20]
        [--traced large-n]

Each side is a fresh `git archive` of its revision in a temporary
directory, run with PYTHONDONTWRITEBYTECODE=1, so neither side holds a
bytecode cache.  Pair p of a workload runs `perfbench/run.py` with seed
first-seed + p on both sides, the parent first on even p and the change
first on odd p.  The output keeps the final JSON line of every run and,
per side and end-to-end metric, the median and quartiles
(statistics.quantiles(values, n=4)) and the pairs the change won.
`--traced W` adds one traced run of workload W, seed 1, per side.
"""

import argparse
import json
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


def run(root, workload, seed, seconds, trace=0):
    """The parsed final JSON line of one benchmark run in root."""
    for dirpath, dirnames, _ in os.walk(root):
        if "__pycache__" in dirnames:
            sys.exit("error: bytecode cache in %s" % dirpath)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(runs, better):
    """Per metric: each side's median and quartiles, and the change's wins."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in ("parent", "change")}
        lower = better[name] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        out[name] = {"better": better[name],
                     "change_wins": "%d/%d" % (wins, len(runs))}
        for side, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            out[name][side] = {"median": median, "q1": q1, "q3": q3}
    return out


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
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {side: checkout(rev, os.path.join(tmp, side))
                 for side, rev in (("parent", args.parent),
                                   ("change", args.change))}
        for workload, pairs, first in zip(args.workload, args.pairs,
                                          args.first_seed):
            runs = []
            for p in range(pairs):
                seed = first + p
                order = ("parent", "change") if p % 2 == 0 else (
                    "change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(roots[side], workload, seed, args.seconds)
                    print(workload, seed, side,
                          json.dumps(pair[side]["metrics"]["ops_per_s"]),
                          file=sys.stderr, flush=True)
                runs.append(pair)
            report["workloads"][workload] = {
                "runs": runs, "summary": summary(runs, better)}
        for workload in args.traced:
            report["traced"][workload] = {
                side: run(roots[side], workload, 1, args.seconds, trace=1)
                for side in ("parent", "change")}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
