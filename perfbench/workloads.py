"""The three workloads: what one operation runs and how it is checked.

An operation has run(), which is timed and returns the program's raw
output, and check(output), which is not timed and returns None or the
reason the output is wrong.  A workload hands out rounds: lists of
operations that are always attempted whole.
"""

import json
import os
import subprocess
import sys

import checks
import gen
from tracing import SUITES


def q(matrix):
    """A matrix of finmet values as Fractions, with None for infinity."""
    return [[None if v.is_inf else v.frac for v in row] for row in matrix]


def write_doc(outdir, name, doc):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


class Op:
    def __init__(self, name, run, check, fault=False):
        self.name, self.run, self.check, self.fault = name, run, check, fault


def first(*reasons):
    return next((r for r in reasons if r), None)


# -- large-n ---------------------------------------------------------------

class LargeN:
    """One round: the fixed sequence of constructions on one instance of
    the pool, the instances cycling in order."""

    tail_pct = 75
    min_rounds = 40

    def __init__(self, seed, outdir):
        self.docs, self.refs, tokens = [], [], 0
        for k in range(gen.LARGE_POOL):
            doc, ref = gen.large_instance(seed, k)
            ref["valid"] = checks.metric_violations(ref["x"]) == 0
            ref["idempotent"] = checks.is_idempotent(ref["rho"])
            self.docs.append(write_doc(outdir, "large-%d.json" % k,
                                       doc.as_json()))
            self.refs.append(ref)
            tokens += doc.tokens
        ref = self.refs[0]
        self.sizes = {"instances": len(self.refs), "X": len(ref["x"]),
                      "Y": len(ref["y"]), "B": len(ref["b"]),
                      "A": len(ref["a_idx"]),
                      "S_classes": [max(gen.zero_classes(r["gamma"])) + 1
                                    for r in self.refs],
                      "U": len(ref["u_idx"]), "tokens": tokens}

    def load(self):
        from finmet import workspace
        self.ws = [workspace.load_workspace_file(p) for p in self.docs]

    def round(self, r):
        from finmet import (corelations, idempotents, limits, minplus,
                            pushouts, quotients, spaces)
        k = r % len(self.ws)
        ws, ref = self.ws[k], self.refs[k]

        def run():
            cm = ws.costmatrix("C")
            closed = minplus.minplus_closure(cm.rho)
            x = spaces.FinSpace(cm.labels, closed)
            violations = spaces.validate_metric(x)
            prod = limits.product(x, ws.space("Y"))
            proj = quotients.quotient_by_submetric(ws.submetric("S"))
            i, f = ws.map("i"), ws.map("f")
            po = pushouts.pushout_along_embedding(i, f)
            oracle = pushouts.pushout_closure_oracle(i, f)
            bm = corelations.gamma_from_subset(ws.space("X"), ref["subset"])
            rho = ws.costmatrix("rho")
            idem = idempotents.is_idempotent(rho)
            report = idempotents.factor_through_zero_diagonal(rho)
            return (cm, closed, violations, prod, proj, po, oracle, bm,
                    idem, report)

        def check(out):
            cm, closed, violations, prod, proj, po, oracle, bm, idem, report = out
            space, p1, p2 = prod
            y = ws.space("Y")
            apex = po.apex
            legs = po.leg_b.assignment + po.leg_x.assignment
            return first(
                checks.check_matrix(q(closed), ref["x"], "closure"),
                checks.check_claim("validate_metric verdict", not violations,
                                   ref["valid"]),
                checks.check_product(ref["x"], list(cm.labels), ref["y"],
                                     list(y.labels), q(space.dist),
                                     p1.assignment, p2.assignment),
                checks.check_quotient(ref["gamma"], proj.target.labels,
                                      q(proj.target.dist), proj.assignment),
                checks.check_matrix(q(po.gamma.gamma), ref["pushout"],
                                    "pushout gamma"),
                checks.check_quotient(ref["pushout"], apex.labels,
                                      q(apex.dist), legs),
                checks.check_matrix(q(oracle.gamma), ref["pushout"],
                                    "oracle gamma"),
                checks.check_blocks(ref["x"], ref["u_idx"],
                                    [q(bm.g00), q(bm.g01), q(bm.g10),
                                     q(bm.g11)]),
                checks.check_claim("is_idempotent", idem, ref["idempotent"]),
                checks.check_factor(ref["rho"], list(cm.labels),
                                    report.zero_diagonal, report.witnesses,
                                    report.failures))

        return [Op("round", run, check)]


# -- selftest --------------------------------------------------------------

class Selftest:
    """One round is one pass over all eleven suites, in a fixed order;
    pass r gives every suite the seed r, in every run.

    A suite's work depends on its seed, which draws the sizes of its
    random spaces, so one suite's time can nearly double from one seed to
    another.  With seeds that changed from run to run the median and the
    tail would measure those draws more than the program's speed.  So the
    benchmark seed does not change this workload's inputs.
    """

    tail_pct = 75
    min_rounds = 4

    def __init__(self, seed, outdir):
        self.docs = []
        self.sizes = {"suites": len(SUITES)}

    def load(self):
        from finmet import selftest
        self.selftest = selftest

    def round(self, r):
        ops = []
        for name in SUITES:
            def run(name=name):
                return self.selftest.run_suite(name, r)

            def check(results, name=name):
                if len(results) != 1 or results[0].name != name:
                    return "suite %s returned %d results" % (name, len(results))
                if not results[0].ok:
                    return "suite %s failed: %s" % (name, results[0].detail)
                return None
            ops.append(Op(name, run, check))
        return ops


# -- cli -------------------------------------------------------------------

def sections(text):
    """Split the cli's text report into titled sections of points, matrix
    rows and map lines."""
    out = []
    for line in text.splitlines():
        if not line.startswith(" "):
            out.append({"title": line, "points": [], "rows": [], "map": []})
        elif line.startswith("  points: "):
            pts = line[len("  points: "):]
            out[-1]["points"] = [] if pts == "-" else pts.split(" ")
        elif line.startswith("    "):
            out[-1]["rows"].append(checks.parse_matrix([line.split()])[0])
        elif " -> " in line:
            out[-1]["map"].append(tuple(line.strip().split(" -> ")))
    return out


def map_targets(section, sources):
    if [a for a, _ in section["map"]] != list(sources):
        raise ValueError("map lines of %r are not in source order"
                         % section["title"])
    return [b for _, b in section["map"]]


def verdict(code, out, true_word, false_word):
    """The property a one-line report states, checked against its exit code."""
    head = out.splitlines()[0] if out else ""
    if head.endswith(true_word) and code == 0:
        return True
    if head.endswith(false_word) and code == 1:
        return False
    raise ValueError("report %r does not match exit code %d" % (head, code))


class Cli:
    """One round runs every command except selftest once, each in a fresh
    process, on one seeded workspace, then the two fault inputs."""

    tail_pct = 90
    min_rounds = 5

    def __init__(self, seed, outdir, env, trace):
        self.outdir, self.env, self.trace = outdir, env, trace
        doc, self.r = gen.cli_workspace(seed)
        self.ws = write_doc(outdir, "cli.json", doc.as_json())
        self.parse_fault = write_doc(outdir, "fault-parse.json",
                                     gen.PARSE_FAULT)
        self.pushout_fault = write_doc(outdir, "fault-pushout.json",
                                       gen.PUSHOUT_FAULT)
        self.docs = [self.ws, self.pushout_fault]
        self.sizes = {name: len(self.r[name][0])
                      for name in ("X1", "X2", "Y", "A", "B", "Q1", "Q2",
                                   "R", "R2")}
        self.sizes["tokens"] = doc.tokens
        self.states, self.import_ms, self.max_rss_kb = [], [], 0
        self.commands = self._commands()

    def load(self):
        pass

    def round(self, r):
        return [self._op(k, *spec) for k, spec in enumerate(self.commands)]

    def _op(self, k, name, ws, args, check, fault=False):
        out_path = os.path.join(self.outdir, "op%d.out" % k)
        err_path = os.path.join(self.outdir, "op%d.err" % k)
        state_path = os.path.join(self.outdir, "op%d.trace" % k)
        if self.trace:
            argv = [sys.executable, os.path.join(os.path.dirname(
                os.path.abspath(__file__)), "cli_child.py"), state_path]
        else:
            argv = [sys.executable, "-m", "finmet.cli"]
        argv += ["-w", ws] + args

        def run():
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                        stdin=subprocess.DEVNULL, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss

        def check_op(result):
            code, rss_kb = result
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
            with open(out_path, encoding="utf-8") as fh:
                out = fh.read()
            with open(err_path, encoding="utf-8") as fh:
                err = fh.read()
            if self.trace:
                with open(state_path, encoding="utf-8") as fh:
                    st = json.load(fh)
                self.states.append(st["state"])
                self.import_ms.append(st["import_ms"])
            if fault:
                return self._check_error(code, out, err)
            if err:
                return "%s: stderr %r" % (name, err.strip().splitlines()[-1])
            try:
                return check(code, out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                return "%s: unreadable output (%s)" % (name, exc)

        return Op(name, run, check_op, fault)

    @staticmethod
    def _check_error(code, out, err):
        lines = err.strip().splitlines()
        if code == 2 and not out and len(lines) == 1 \
                and lines[0].startswith("error:"):
            return None
        return "exit %d, expected 2 with one error line; stderr ends %r" % (
            code, lines[-1] if lines else "")

    def _commands(self):
        r = self.r
        lab = {name: r[name][0] for name in
               ("X1", "X2", "Y", "A", "B", "Q1", "Q2", "R", "R2")}
        mat = {name: r[name][1] for name in lab}
        _, _, a_idx = r["maps"]["i"]
        _, _, f_idx = r["maps"]["f"]
        _, _, g1 = r["maps"]["g1"]
        _, _, g2 = r["maps"]["g2"]
        _, _, q1 = r["maps"]["q1"]
        _, _, q2 = r["maps"]["q2"]
        pushout_ref = checks.glued_closure(mat["B"], mat["X1"],
                                           list(zip(f_idx, a_idx)))
        cokernel_ref = checks.glued_closure(mat["X1"], mat["X1"],
                                            [(a, a) for a in a_idx])
        wx, wy = r["witness_pair"]

        def js(out):
            return json.loads(out)

        def c_validate_space(code, out):
            return checks.check_metric_valid(
                mat["X1"], verdict(code, out, ": VALID", ": INVALID"))

        def c_validate_submetric(code, out):
            return checks.check_submetric_valid(
                mat["X1"], r["G1"], verdict(code, out, ": VALID", ": INVALID"))

        def c_validate_map(code, out):
            return checks.check_nonexpansive(
                mat["A"], mat["B"], f_idx,
                verdict(code, out, ": VALID", ": INVALID"))

        def c_product(code, out):
            sp, m1, m2 = sections(out)
            return checks.check_product(
                mat["X2"], lab["X2"], mat["Y"], lab["Y"], sp["rows"],
                map_targets(m1, sp["points"]), map_targets(m2, sp["points"]))

        def c_coproduct(code, out):
            sp, j1, j2 = sections(out)
            return checks.check_coproduct(
                mat["X2"], mat["Y"], sp["points"], sp["rows"],
                map_targets(j1, lab["X2"]), map_targets(j2, lab["Y"]))

        def c_equalizer(code, out):
            p = js(out)
            if p["space"]["points"] != p["inclusion"]:
                return "equalizer points differ from its inclusion"
            return checks.check_equalizer(
                lab["X2"], mat["X2"], g1, g2, p["inclusion"],
                checks.parse_matrix(p["space"]["dist"]))

        def apex_check(ref, apex, legs):
            return checks.check_quotient(ref, apex["points"], apex["rows"],
                                         legs)

        def c_pushout(code, out):
            secs = sections(out)
            gamma, apex, leg_b, leg_x = secs[:4]
            return first(
                checks.check_matrix(gamma["rows"], pushout_ref, "pushout gamma"),
                apex_check(pushout_ref, apex,
                           map_targets(leg_b, lab["B"])
                           + map_targets(leg_x, lab["X1"])))

        def c_pushout_oracle(code, out):
            secs = sections(out)
            oracle, agree = secs[4], secs[5]["title"]
            return first(
                c_pushout(code, out),
                checks.check_matrix(oracle["rows"], pushout_ref, "oracle gamma"),
                None if agree == "formula vs oracle: AGREE" and code == 0
                else "oracle verdict %r with exit %d" % (agree, code))

        def c_cokernel(code, out):
            p = js(out)
            apex = {"points": p["apex"]["points"],
                    "rows": checks.parse_matrix(p["apex"]["dist"])}
            return apex_check(cokernel_ref, apex, p["q0"] + p["q1"])

        def c_factorize(code, out):
            p = js(out)
            return checks.check_factorize(
                [lab["Y"][k] for k in g1], lab["Y"], mat["Y"],
                p["image"]["points"], checks.parse_matrix(p["image"]["dist"]),
                p["surjection"], p["embedding"])

        def c_kernel(code, out):
            return checks.check_matrix(checks.parse_matrix(js(out)["matrix"]),
                                       checks.kernel(mat["Y"], g1),
                                       "kernel metric")

        def c_quotient(code, out):
            p = js(out)
            return checks.check_quotient(
                r["G1"], p["quotient"]["points"],
                checks.parse_matrix(p["quotient"]["dist"]), p["projection"])

        def c_leq(code, out):
            return checks.check_quotient_leq(
                checks.kernel(mat["Q1"], q1), checks.kernel(mat["Q2"], q2),
                verdict(code, out, ": true", ": false"))

        def c_corelation(code, out):
            p = js(out)
            claimed = (p["reflexive"], p["symmetric"], p["transitive"],
                       p["equivalence"])
            return first(
                checks.check_corelation(mat["X2"], r["E"], claimed),
                None if (code == 0) == p["equivalence"] else
                "exit %d for equivalence %s" % (code, p["equivalence"]))

        def c_effective(code, out):
            p = js(out)
            return first(
                checks.check_effective(mat["X1"], lab["X1"], r["E2"],
                                       p["zero_locus"], p["effective"]),
                None if (code == 0) == p["effective"] else
                "exit %d for effective %s" % (code, p["effective"]))

        def c_from_subset(code, out):
            p = js(out)
            return checks.check_blocks(
                mat["X2"], r["subset_idx"],
                [checks.parse_matrix(p[k]) for k in ("g00", "g01", "g10", "g11")])

        def c_idem_check(code, out):
            claimed = js(out)["idempotent"]
            return first(checks.check_idempotent(r["rho2"], claimed),
                         None if (code == 0) == claimed else
                         "exit %d for idempotent %s" % (code, claimed))

        def c_idem_factor(code, out):
            p = js(out)
            witnesses = {tuple(k.split(",")): v
                         for k, v in p["witnesses"].items()}
            return checks.check_factor(
                r["rho"], lab["X1"], p["zero_diagonal"], witnesses,
                [] if p["ok"] and code == 0 else ["ok=%s" % p["ok"]])

        def c_witness(code, out):
            return checks.check_relation_witness(
                mat["R"], lab["R"], wx, wy, js(out)["witness"])

        ws = self.ws
        return [
            ("validate-space", ws, ["validate", "space", "X1"], c_validate_space),
            ("validate-submetric", ws, ["validate", "submetric", "G1"],
             c_validate_submetric),
            ("validate-map", ws, ["validate", "map", "f"], c_validate_map),
            ("product", ws, ["product", "X2", "Y"], c_product),
            ("coproduct", ws, ["coproduct", "X2", "Y"], c_coproduct),
            ("equalizer", ws, ["--json", "equalizer", "g1", "g2"], c_equalizer),
            ("pushout", ws, ["pushout", "--embedding", "i", "--along", "f"],
             c_pushout),
            ("pushout-oracle", ws, ["pushout", "--embedding", "i", "--along",
                                    "f", "--oracle"], c_pushout_oracle),
            ("cokernel-pair", ws, ["--json", "cokernel-pair", "i"], c_cokernel),
            ("factorize", ws, ["--json", "factorize", "g1"], c_factorize),
            ("kernel-metric", ws, ["--json", "kernel-metric", "g1"], c_kernel),
            ("quotient", ws, ["--json", "quotient", "G1"], c_quotient),
            ("quotient-leq", ws, ["quotient-leq", "q1", "q2"], c_leq),
            ("corelation-check", ws, ["--json", "corelation", "check", "E"],
             c_corelation),
            ("corelation-effective", ws, ["--json", "corelation", "effective",
                                          "E2"], c_effective),
            ("corelation-from-subset", ws, ["--json", "corelation",
                                            "from-subset", "X2", r["subset"]],
             c_from_subset),
            ("idempotent-check", ws, ["--json", "idempotent", "check", "rho2"],
             c_idem_check),
            ("idempotent-factor", ws, ["--json", "idempotent", "factor", "rho"],
             c_idem_factor),
            ("relation-witness", ws, ["--json", "relation", "witness", "R",
                                      wx, wy], c_witness),
            # (a) a "1/0" token must be refused with exit 2.
            ("fault-parse", self.parse_fault, ["validate", "space", "Z"],
             None, True),
            # (e) a pushout along a map that is not non-expansive.
            ("fault-pushout", self.pushout_fault,
             ["pushout", "--embedding", "i", "--along", "f"], None, True),
        ]
