"""Spans and counts around calls into finmet's public functions.

The tracer wraps functions from outside: every module-level name bound
to a traced function is rebound to a wrapper, so calls between finmet's
own modules are seen too.  A span's self time is its duration minus the
time of the spans it encloses; spans are folded into per-name totals as
they end, so a long run keeps no per-call records.
"""

import builtins
import importlib
import json
import sys
import types
from time import perf_counter

SUITES = ("metric-laws", "factorization", "duality", "pushout-formula",
          "pushout-universal", "embedding-stability", "pullback",
          "gamma-subset", "effective-exhaustive", "idempotence",
          "pinned-fixtures")

# (module, function, span name).  Two functions may share a span name:
# validate_metric delegates the axiom check to metric_violations, which
# the submetric validator calls too, and is_nonexpansive delegates to
# check_nonexpansive, which the cli calls directly.
TARGETS = (
    ("extarith", "parse", "extarith.parse"),
    ("minplus", "minplus_closure", "minplus.closure"),
    ("minplus", "minplus_matmul", "minplus.matmul"),
    ("spaces", "metric_violations", "spaces.validate_metric"),
    ("spaces", "sep_reflection", "spaces.sep_reflection"),
    ("maps", "check_nonexpansive", "maps.is_nonexpansive"),
    ("maps", "compose", "maps.compose"),
    ("limits", "product", "limits.product"),
    ("limits", "coproduct", "limits.coproduct"),
    ("quotients", "quotient_by_submetric", "quotients.quotient_by_submetric"),
    ("quotients", "kernel_metric", "quotients.kernel_metric"),
    ("pushouts", "pushout_along_embedding", "pushouts.formula"),
    ("pushouts", "pushout_closure_oracle", "pushouts.oracle"),
    ("pushouts", "verify_pushout_universal", "pushouts.verify_universal"),
    ("corelations", "gamma_from_subset", "corelations.gamma_from_subset"),
    ("corelations", "is_equivalence", "corelations.is_equivalence"),
    ("idempotents", "is_idempotent", "idempotents.is_idempotent"),
    ("idempotents", "factor_through_zero_diagonal", "idempotents.factor"),
    ("workspace", "load_workspace", "workspace.load"),
    ("workspace", "load_workspace_file", "workspace.load"),
    ("harness", "gen_metric", "harness.gen_metric"),
    ("harness", "enumerate_mediators", "harness.enumerate_mediators"),
)

# cli rendering: the report builders and the final print / json.dumps.
RENDER = ("_space_lines", "_map_lines", "_matrix_lines", "_report_violations")

MODULES = ("extarith", "minplus", "spaces", "maps", "limits", "quotients",
           "pushouts", "corelations", "idempotents", "workspace", "harness",
           "selftest", "cli")


def _cube(args):
    return len(args[0]) ** 3


class Tracer:
    def __init__(self):
        self.spans = {}      # name -> [calls, inclusive s, self s]
        self.counts = {}
        self._stack = []
        self._formula = None  # (key, seconds) of the last pushout formula

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, after=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, out, dt)
            return out
        return traced

    def _after_formula(self, args, out, dt):
        self._formula = ((id(args[0]), id(args[1])), dt)

    def _after_oracle(self, args, out, dt):
        # Pair the oracle with a formula call on the same span, so the
        # ratio compares the two routes on identical inputs.
        if self._formula and self._formula[0] == (id(args[0]), id(args[1])):
            self.count("pushouts.paired_formula_s", self._formula[1])
            self.count("pushouts.paired_oracle_s", dt)
        self._formula = None

    def install(self):
        """Import every finmet module and rebind the traced functions."""
        mods = {m: importlib.import_module("finmet." + m) for m in MODULES}
        hooks = {
            "extarith.parse": lambda a, o, dt: self.count("tokens", 1),
            "minplus.closure": lambda a, o, dt: self.count("closure_steps", _cube(a)),
            "minplus.matmul": lambda a, o, dt: self.count("matmul_steps", _cube(a)),
            "spaces.validate_metric": lambda a, o, dt: self.count("triples", _cube(a)),
            "harness.gen_metric": self._after_gen,
            "pushouts.formula": self._after_formula,
            "pushouts.oracle": self._after_oracle,
        }
        swaps = {}
        for mod, fname, span in TARGETS:
            orig = getattr(mods[mod], fname)
            swaps[id(orig)] = self.wrap(span, orig, hooks.get(span))
        cli = mods["cli"]
        for fname, fn in vars(cli).items():
            if fname.startswith("cmd_"):
                swaps[id(fn)] = self.wrap("cli.handler", fn)
        for fname in RENDER:
            fn = getattr(cli, fname)
            swaps[id(fn)] = self.wrap("cli.render", fn)
        for name, mod in list(sys.modules.items()):
            if name == "finmet" or name.startswith("finmet."):
                for attr, val in list(vars(mod).items()):
                    if id(val) in swaps:
                        setattr(mod, attr, swaps[id(val)])
        cli.print = self.wrap("cli.render", builtins.print)
        cli.json = types.SimpleNamespace(
            dumps=self.wrap("cli.render", json.dumps))
        finmap = mods["maps"].FinMap
        finmap.__init__ = self.wrap("maps.finmap", finmap.__init__)

    def _after_gen(self, args, out, dt):
        self.count("points_requested", args[0].max_points)
        self.count("points_generated", out.n)

    def state(self):
        return {"spans": self.spans, "counts": self.counts}


def merge(states):
    """Sum the span totals and counts of several tracer states."""
    spans, counts = {}, {}
    for st in states:
        for name, rec in st["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        for name, v in st["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return {"spans": spans, "counts": counts}


TIME_UNITS = ("s/op", "s/doc", "s/call", "ms", "us", "ns")


def layer_metrics(state, ops, docs, suite_calls, python_start_ms, import_ms,
                  slowdown):
    """The per-layer metrics of one traced run.

    Span times are self times.  Loader figures are per workspace document
    loaded, suite times per call of that suite, everything else per
    operation; a layer the workload never calls reads 0.  Times are
    divided by the run's slowdown, as the end-to-end times are, except
    the bare interpreter start, which is a raw reference.
    """
    spans, counts = state["spans"], state["counts"]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    def per(value, base):
        return value / base if base else 0.0

    def cnt(name):
        return counts.get(name, 0)

    m = {}

    def put(name, value, unit, scaled=True):
        if scaled and unit in TIME_UNITS:
            value /= slowdown
        m[name] = {"value": value, "unit": unit}

    put("extarith.parse_s", per(self_s("extarith.parse"), docs), "s/doc")
    put("extarith.parse_us_per_token",
        per(self_s("extarith.parse") * 1e6, cnt("tokens")), "us")
    put("minplus.closure_s", per(self_s("minplus.closure"), ops), "s/op")
    put("minplus.closure_steps", per(cnt("closure_steps"), ops), "1/op")
    put("minplus.closure_ns_per_step",
        per(self_s("minplus.closure") * 1e9, cnt("closure_steps")), "ns")
    put("minplus.matmul_s", per(self_s("minplus.matmul"), ops), "s/op")
    put("minplus.matmul_ns_per_step",
        per(self_s("minplus.matmul") * 1e9, cnt("matmul_steps")), "ns")
    put("spaces.validate_metric_s",
        per(self_s("spaces.validate_metric"), ops), "s/op")
    put("spaces.validate_ns_per_triple",
        per(self_s("spaces.validate_metric") * 1e9, cnt("triples")), "ns")
    put("spaces.sep_reflection_s",
        per(self_s("spaces.sep_reflection"), ops), "s/op")
    put("maps.finmap_s", per(self_s("maps.finmap"), ops), "s/op")
    put("maps.finmap_calls",
        per(spans.get("maps.finmap", [0])[0], ops), "1/op")
    put("maps.compose_s", per(self_s("maps.compose"), ops), "s/op")
    put("maps.is_nonexpansive_s",
        per(self_s("maps.is_nonexpansive"), ops), "s/op")
    put("limits.product_s", per(self_s("limits.product"), ops), "s/op")
    put("limits.coproduct_s", per(self_s("limits.coproduct"), ops), "s/op")
    put("quotients.quotient_by_submetric_s",
        per(self_s("quotients.quotient_by_submetric"), ops), "s/op")
    put("quotients.kernel_metric_s",
        per(self_s("quotients.kernel_metric"), ops), "s/op")
    put("pushouts.formula_s", per(self_s("pushouts.formula"), ops), "s/op")
    put("pushouts.oracle_s", per(self_s("pushouts.oracle"), ops), "s/op")
    put("pushouts.formula_over_oracle",
        per(cnt("pushouts.paired_formula_s"), cnt("pushouts.paired_oracle_s")),
        "ratio")
    put("pushouts.verify_universal_s",
        per(self_s("pushouts.verify_universal"), ops), "s/op")
    put("corelations.gamma_from_subset_s",
        per(self_s("corelations.gamma_from_subset"), ops), "s/op")
    put("corelations.is_equivalence_s",
        per(self_s("corelations.is_equivalence"), ops), "s/op")
    put("idempotents.is_idempotent_s",
        per(self_s("idempotents.is_idempotent"), ops), "s/op")
    put("idempotents.factor_s", per(self_s("idempotents.factor"), ops), "s/op")
    put("workspace.load_s", per(self_s("workspace.load"), docs), "s/doc")
    put("workspace.tokens", per(cnt("tokens"), docs), "1/doc")
    put("cli.python_start_ms", python_start_ms, "ms", scaled=False)
    put("cli.import_ms", import_ms, "ms")
    put("cli.handler_s", per(self_s("cli.handler"), ops), "s/op")
    put("cli.render_s", per(self_s("cli.render"), ops), "s/op")
    put("harness.gen_metric_s", per(self_s("harness.gen_metric"), ops), "s/op")
    put("harness.enumerate_mediators_s",
        per(self_s("harness.enumerate_mediators"), ops), "s/op")
    put("harness.gen_size_yield",
        per(cnt("points_generated"), cnt("points_requested")), "ratio")
    for suite in SUITES:
        put("selftest.%s_s" % suite,
            per(suite_calls.get(suite, [0, 0.0])[1],
                suite_calls.get(suite, [0, 0.0])[0]), "s/call")
    return m
