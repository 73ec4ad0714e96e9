"""Two revisions' large-n round, construction by construction, in one
process.

Usage, from the root of a finmet checkout:

    python3 tools/ab_round.py --a REV --b REV [--passes N]

Each side is a fresh `git archive` of its revision in a temporary
directory, and its src/finmet is imported under its own package name,
finmet_a or finmet_b, so both run in this one process.  The inputs are
the large-n instances of seed 1, built by perfbench/gen.py (which is
only read) and loaded by each side's own loader.  Before any timing,
each construction of the round (as perfbench/workloads.py runs it) is
run once per instance on both sides, and its outputs must be equal as
plain data (same()); otherwise the tool exits 1 naming the first
construction that differs.  A pass then times every construction on
every instance with time.process_time, once per side, the sides taking
turns to go first; N passes (default 40, at least 2) give N pairs.
Each construction and the whole round, in ms per round, go through
bench_pairs.compare(), the rule of every A/B timing, with a as the
parent, b as the change and lower better: each side's median and
quartiles, b's wins, and the claim rule, which holds only if b wins at
least nine tenths of the passes and its median beats a's by more than
a's interquartile range.  The tool prints one line per construction
and for the round, and as its last line the summary as JSON.  CPU time
in one process resolves per-construction changes of a few percent,
which one traced benchmark run, in a process of its own, cannot.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import sys
import tempfile
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import gen  # noqa: E402
from bench_pairs import checkout, compare, metric_lines  # noqa: E402

SEED = 1
SIDES = ("a", "b")
MODULES = ("corelations", "idempotents", "limits", "minplus", "pushouts",
           "quotients", "spaces", "workspace")


def load_package(name, src):
    """The package in the directory src, imported as name with the
    modules the round uses, in place of any earlier import as name."""
    for key in [k for k in sys.modules if k.split(".")[0] == name]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in MODULES:
        importlib.import_module("%s.%s" % (name, module))
    return package


def constructions(fm, doc, subset):
    """The round's constructions on one instance, as (name, call) pairs
    in the benchmark's order, their inputs loaded by package fm."""
    ws = fm.workspace.load_workspace(doc)
    cm, rho, sm = ws.costmatrix("C"), ws.costmatrix("rho"), ws.submetric("S")
    i, f, y, xs = ws.map("i"), ws.map("f"), ws.space("Y"), ws.space("X")
    x = fm.spaces.FinSpace(cm.labels, fm.minplus.minplus_closure(cm.rho))
    return [
        ("closure", lambda: fm.minplus.minplus_closure(cm.rho)),
        ("validate", lambda: fm.spaces.validate_metric(x)),
        ("product", lambda: fm.limits.product(x, y)),
        ("quotient", lambda: fm.quotients.quotient_by_submetric(sm)),
        ("formula", lambda: fm.pushouts.pushout_along_embedding(i, f)),
        ("oracle", lambda: fm.pushouts.pushout_closure_oracle(i, f)),
        ("gamma", lambda: fm.corelations.gamma_from_subset(xs, subset)),
        ("idempotence", lambda: fm.idempotents.is_idempotent(rho)),
        ("factor", lambda: fm.idempotents.factor_through_zero_diagonal(rho)),
    ]


def same(x, y):
    """Whether x and y, outputs of the two packages, are equal as plain
    data: a record (a class with _fields) by its class name and the
    public fields that both x and y have, so that a field added or
    removed between the revisions does not count, and tuples, lists and
    dicts item by item."""
    fields_x = getattr(type(x), "_fields", None)
    fields_y = getattr(type(y), "_fields", None)
    if fields_x is not None and fields_y is not None:
        shared = [f for f in fields_x
                  if f in fields_y and not f.startswith("_")]
        return (type(x).__name__ == type(y).__name__
                and all(same(getattr(x, f), getattr(y, f)) for f in shared))
    if isinstance(x, dict) and isinstance(y, dict):
        x, y = list(x.items()), list(y.items())
    if isinstance(x, (tuple, list)) and isinstance(y, (tuple, list)):
        return len(x) == len(y) and all(map(same, x, y))
    return x == y


def check_equal(instances):
    """Exit 1 naming the first construction whose outputs differ between
    the sides on some instance."""
    for k, (calls_a, calls_b) in enumerate(zip(*instances.values())):
        for (name, call_a), (_, call_b) in zip(calls_a, calls_b):
            if not same(call_a(), call_b()):
                sys.exit("error: %s differs between a and b on instance %d"
                         % (name, k))


def time_pass(calls):
    """CPU seconds of each construction, summed over the instances."""
    totals = {}
    gc.collect()
    for instance in calls:
        for name, call in instance:
            start = process_time()
            call()
            totals[name] = totals.get(name, 0.0) + process_time() - start
    return totals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--passes", type=int, default=40)
    args = ap.parse_args(argv)
    if args.passes < 2:
        ap.error("--passes must be at least 2, as the quartiles need two")
    revs = {"a": args.a, "b": args.b}
    docs = [gen.large_instance(SEED, k) for k in range(gen.LARGE_POOL)]
    with tempfile.TemporaryDirectory() as tmp:
        instances = {}
        for side in SIDES:
            root = checkout(revs[side], os.path.join(tmp, side))
            fm = load_package("finmet_" + side,
                              os.path.join(root, "src", "finmet"))
            instances[side] = [constructions(fm, doc.as_json(),
                                             ref["subset"])
                               for doc, ref in docs]
    check_equal(instances)
    passes = {side: [] for side in SIDES}
    for p in range(args.passes):
        for side in SIDES if p % 2 == 0 else SIDES[::-1]:
            totals = time_pass(instances[side])
            totals["round"] = sum(totals.values())
            passes[side].append(totals)
    summ = {}
    for name in passes["a"][0]:
        a, b = ([1000 * t[name] / len(docs) for t in passes[side]]
                for side in SIDES)
        summ[name] = compare(a, b, "lower", args.passes)
    for line in metric_lines("large-n", summ):
        print(line)
    print(json.dumps({"a": args.a, "b": args.b, "seed": SEED,
                      "instances": len(docs), "passes": args.passes,
                      "unit": "ms per round", "summary": summ},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
