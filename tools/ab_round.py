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
run once per instance on both sides, and its outputs, compared as plain
data, must be equal; otherwise the tool exits 1 naming the first
construction that differs.  A pass then times every construction on
every instance with time.process_time, once per side, the sides taking
turns to go first.  For each construction and for the whole round, the
tool prints each side's median over the passes, in ms per round, and
b's change against a, and as its last line the same as JSON.  CPU time
in one process resolves per-construction changes of a few percent,
which one traced benchmark run, in a process of its own, cannot.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import tempfile
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import gen  # noqa: E402
from bench_pairs import checkout  # noqa: E402

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


def plain(obj):
    """obj as nested tuples of scalars, a record as its class name and
    fields, so that outputs of the two packages compare."""
    fields = getattr(type(obj), "_fields", None)
    if fields is not None:
        return (type(obj).__name__,) + tuple(
            plain(getattr(obj, name)) for name in fields)
    if isinstance(obj, (tuple, list)):
        return tuple(map(plain, obj))
    if isinstance(obj, dict):
        return tuple((plain(k), plain(v)) for k, v in obj.items())
    return obj


def check_equal(instances):
    """Exit 1 naming the first construction whose outputs differ between
    the sides on some instance."""
    for k, (calls_a, calls_b) in enumerate(zip(*instances.values())):
        for (name, call_a), (_, call_b) in zip(calls_a, calls_b):
            if plain(call_a()) != plain(call_b()):
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
    if args.passes < 1:
        ap.error("--passes must be at least 1")
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
            passes[side].append(time_pass(instances[side]))
    names = [name for name, _ in instances["a"][0]] + ["round"]
    for runs in passes.values():
        for totals in runs:
            totals["round"] = sum(totals.values())
    ms = {name: {side: 1000 * statistics.median(
        t[name] for t in passes[side]) / len(docs) for side in SIDES}
        for name in names}
    for entry in ms.values():
        entry["change_pct"] = 100 * (entry["b"] / entry["a"] - 1)
    for name, entry in ms.items():
        print("%-12s a %8.4f ms  b %8.4f ms  %+6.1f %%"
              % (name, entry["a"], entry["b"], entry["change_pct"]))
    print(json.dumps({"a": args.a, "b": args.b, "seed": SEED,
                      "instances": len(docs), "passes": args.passes,
                      "ms_per_round": ms}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
