"""finmet benchmark: one workload, one seed, one run.

Usage, from the root of a finmet checkout:

    python3 perfbench/run.py --workload large-n|selftest|cli --seed N
                             --seconds S --trace 0|1

Generates the workload's inputs from the seed, loads them through
finmet's own loader, runs whole rounds of operations for at least S
seconds in a closed loop with one client, and checks every operation's
output against the computations in checks.py.  The last line of standard
output is one JSON object: whether every output was right, the
operations attempted and failed, and the metrics.  With --trace 0 these
are the end-to-end metrics; with --trace 1 the run is traced and they
are the per-layer metrics.  Times are reported at a reference machine
speed, measured beside the work by calibration.py (see README.md).
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 7
REFERENCE_REPS = 5


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def child_seconds(argv, env):
    """Run a child that prints one number of seconds; return it."""
    out = subprocess.run(argv, env=env, check=True, stdin=subprocess.DEVNULL,
                         stdout=subprocess.PIPE, text=True).stdout
    return float(out.strip().splitlines()[-1])


def setup_seconds(workload, docs, env):
    """Median over fresh processes of import plus load, after one
    discarded process that fills the bytecode cache; raw and at the
    reference speed."""
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), workload]
    argv += docs
    child_seconds(argv, env)
    cal = calibration.process_start(env)
    times = []
    for _ in range(SETUP_REPS):
        cal.sample()
        times.append(child_seconds(argv, env))
    cal.sample()
    scaled = [t / f for t, f in zip(times, cal.local_slowdowns(len(times)))]
    return statistics.median(times), statistics.median(scaled)


def python_start_ms(env):
    """Median wall time of a bare interpreter start, for reference."""
    cal = calibration.process_start(env)
    for _ in range(REFERENCE_REPS):
        cal.sample()
    return statistics.median(cal.samples) * 1e3


def cli_import_ms(env):
    code = ("import time; t = time.perf_counter(); import finmet.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        child_seconds([sys.executable, "-c", code], env)
        for _ in range(REFERENCE_REPS)) * 1e3


def measure(wl, seconds, min_rounds, cal):
    """Whole rounds until both the time and the round minimum are reached.
    Only run() is timed; the calibration and the check run between
    operations."""
    latencies, failures, by_name = [], [], {}
    start = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - start < seconds:
        for op in wl.round(r):
            gc.collect()
            cal.sample()
            t0 = perf_counter()
            out = op.run()
            latencies.append(perf_counter() - t0)
            reason = op.check(out)
            if reason:
                failures.append((op, reason))
            rec = by_name.setdefault(op.name, [0, 0.0])
            rec[0] += 1
            rec[1] += latencies[-1]
        r += 1
    cal.sample()
    return latencies, failures, r, by_name


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("large-n", "selftest", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "finmet", "__init__.py")):
        print("error: no finmet source under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=src)

    outdir = os.path.join(HERE, "out", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(outdir)
    try:
        if args.workload == "large-n":
            wl = workloads.LargeN(args.seed, outdir)
        elif args.workload == "selftest":
            wl = workloads.Selftest(args.seed, outdir)
        else:
            wl = workloads.Cli(args.seed, outdir, env, args.trace)
        print("inputs: " + json.dumps(wl.sizes, sort_keys=True))

        if not args.trace:
            setup_raw, setup_s = setup_seconds(args.workload, wl.docs, env)
        import finmet
        if not os.path.abspath(finmet.__file__).startswith(src + os.sep):
            print("error: finmet imported from %s" % finmet.__file__,
                  file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        wl.load()

        min_rounds = 1 if args.trace else wl.min_rounds
        if args.workload == "cli":
            cal = calibration.process_start(env)
        else:
            cal = calibration.in_process()
        raw, failures, rounds, by_name = measure(wl, args.seconds,
                                                 min_rounds, cal)
        slowdown = cal.slowdown()
        latencies = [t / f for t, f in
                     zip(raw, cal.local_slowdowns(len(raw)))]
        unexpected = [(op.name, reason) for op, reason in failures
                      if not op.fault]
        for name, reason in sorted(set((op.name, reason)
                                       for op, reason in failures)):
            print("failed: %s: %s" % (name, reason))

        p50_ms = statistics.median(latencies) * 1e3
        if args.trace:
            if args.workload == "cli":
                state = tracing.merge(wl.states)
                import_ms = statistics.median(wl.import_ms)
                docs = len(latencies)
            else:
                state = tracer.state()
                import_ms = cli_import_ms(env)
                docs = len(wl.docs)
            metrics = tracing.layer_metrics(
                state, len(latencies), docs, by_name,
                python_start_ms(env), import_ms, slowdown)
            print("traced: ops=%d rounds=%d op_p50_ms=%.4f slowdown=%.4f"
                  % (len(latencies), rounds, p50_ms, slowdown))
        else:
            if args.workload == "cli":
                rss_kb = wl.max_rss_kb
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "ops_per_s": {"value": len(latencies) / sum(latencies),
                              "unit": "1/s"},
                "op_p50_ms": {"value": p50_ms, "unit": "ms"},
                "op_tail_ms": {"value": percentile(latencies, wl.tail_pct)
                               * 1e3, "unit": "ms"},
                "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            }
            print("ops=%d rounds=%d op_tail=p%d slowdown=%.4f raw: setup_s=%.6f "
                  "op_p50_ms=%.4f op_tail_ms=%.4f ops_per_s=%.4f"
                  % (len(latencies), rounds, wl.tail_pct, slowdown, setup_raw,
                     statistics.median(raw) * 1e3,
                     percentile(raw, wl.tail_pct) * 1e3, len(raw) / sum(raw)))
        print(json.dumps({"correct": not unexpected,
                          "attempted": len(latencies),
                          "failed": len(failures),
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
