"""Command-line front end.

Loads a workspace document, runs one construction or predicate, and
prints a byte-stable report.  Exit codes: 0 success / property true,
1 property false or validation failed (with witnesses), 2 malformed
input or an output closed before the report was written.

A command reads objects through the workspace getters, which refuse
(exit 2) one that breaks its kind's contract; `validate` and
`corelation check` report the violations instead (exit 1).

A call pays only for the command it runs.  Each handler imports its
construction module when it runs, and the loader needs no module but
spaces for its records.  parse_args builds the subparsers of the
command named in argv alone, and all of them only to print help or an
argparse error, so those texts are the full parser's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .extarith import Frozen
from .workspace import blockmetric_entry, load_workspace_file, space_entry

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BAD_INPUT = 2


def _space_lines(title, space):
    lines = _matrix_lines(title, space.labels, space.dist)
    lines.insert(2, "  dist:")
    return lines


def _map_lines(title, fmap):
    lines = ["%s:" % title]
    if not fmap.source.labels:
        lines.append("  (empty source)")
    for x, y in zip(fmap.source.labels, fmap.assignment):
        lines.append("  %s -> %s" % (x, y))
    return lines


def _matrix_lines(title, labels, matrix):
    lines = ["%s:" % title,
             "  points: %s" % (" ".join(labels) if labels else "-")]
    for row in matrix.tokens():
        lines.append("    " + " ".join(row))
    return lines


def _report_violations(title, violations):
    if not violations:
        return EXIT_OK, ["%s: VALID" % title], {"ok": True, "violations": []}
    lines = ["%s: INVALID" % title]
    payload = []
    for v in violations:
        lines.append("  " + str(v))
        payload.append({"kind": v.kind, "points": list(v.points),
                        "detail": v.detail})
    return EXIT_FALSE, lines, {"ok": False, "violations": payload}


def _refused(title, exc):
    """The exit-1 report of a property the library refused to decide:
    one line, title and the error, and the error as the payload."""
    return EXIT_FALSE, ["%s: %s" % (title, exc)], {"error": str(exc)}


def cmd_validate(ws, args):
    return _report_violations("validate %s %s" % (args.kind, args.name),
                              ws.violations(args.kind, args.name))


def cmd_product(ws, args):
    from .limits import product

    space, p1, p2 = product(ws.space(args.left), ws.space(args.right))
    lines = _space_lines("product %s x %s" % (args.left, args.right), space)
    lines += _map_lines("projection 1", p1) + _map_lines("projection 2", p2)
    return EXIT_OK, lines, {"space": space_entry("product", space)}


def cmd_coproduct(ws, args):
    from .limits import coproduct

    space, j1, j2 = coproduct(ws.space(args.left), ws.space(args.right))
    lines = _space_lines("coproduct %s + %s" % (args.left, args.right), space)
    lines += _map_lines("injection 1", j1) + _map_lines("injection 2", j2)
    return EXIT_OK, lines, {"space": space_entry("coproduct", space)}


def cmd_equalizer(ws, args):
    from .limits import equalizer

    incl = equalizer(ws.map(args.left), ws.map(args.right))
    lines = _space_lines("equalizer of %s, %s" % (args.left, args.right),
                         incl.source)
    lines += _map_lines("inclusion", incl)
    return EXIT_OK, lines, {"space": space_entry("equalizer", incl.source),
                            "inclusion": list(incl.assignment)}


def cmd_pushout(ws, args):
    from . import pushouts

    i = ws.map(args.embedding)
    f = ws.map(args.along)
    result = pushouts.pushout_along_embedding(i, f)
    g = result.gamma
    lines = _matrix_lines("pushout gamma", g.base.labels, g.gamma)
    lines += _space_lines("apex", result.apex)
    lines += _map_lines("leg from %s" % args.along, result.leg_b)
    lines += _map_lines("leg from %s" % args.embedding, result.leg_x)
    payload = {"gamma": g.gamma.tokens(),
               "apex": space_entry("apex", result.apex)}
    code = EXIT_OK
    if args.oracle:
        oracle = pushouts.pushout_closure_oracle(i, f)
        lines += _matrix_lines("oracle gamma", oracle.base.labels, oracle.gamma)
        agree = oracle.gamma == g.gamma
        lines.append("formula vs oracle: %s" % ("AGREE" if agree else "DISAGREE"))
        payload["oracle_gamma"] = oracle.gamma.tokens()
        payload["agree"] = agree
        if not agree:
            code = EXIT_FALSE
    return code, lines, payload


def cmd_cokernel_pair(ws, args):
    from . import pushouts

    q0, q1, apex = pushouts.cokernel_pair(ws.map(args.embedding))
    lines = _space_lines("cokernel pair of %s" % args.embedding, apex)
    lines += _map_lines("q0", q0) + _map_lines("q1", q1)
    return EXIT_OK, lines, {"apex": space_entry("apex", apex),
                            "q0": list(q0.assignment),
                            "q1": list(q1.assignment)}


def cmd_factorize(ws, args):
    from .maps import factorize

    q, i = factorize(ws.map(args.map))
    lines = _space_lines("image of %s" % args.map, q.target)
    lines += _map_lines("surjection", q) + _map_lines("embedding", i)
    return EXIT_OK, lines, {"image": space_entry("image", q.target),
                            "surjection": list(q.assignment),
                            "embedding": list(i.assignment)}


def cmd_kernel_metric(ws, args):
    from .quotients import kernel_metric

    sm = kernel_metric(ws.map(args.map))
    lines = _matrix_lines("kernel metric of %s" % args.map,
                          sm.base.labels, sm.gamma)
    return EXIT_OK, lines, {"matrix": sm.gamma.tokens()}


def cmd_quotient(ws, args):
    from .quotients import quotient_by_submetric

    proj = quotient_by_submetric(ws.submetric(args.submetric))
    lines = _space_lines("quotient by %s" % args.submetric, proj.target)
    lines += _map_lines("projection", proj)
    return EXIT_OK, lines, {"quotient": space_entry("quotient", proj.target),
                            "projection": list(proj.assignment)}


def cmd_quotient_leq(ws, args):
    from .quotients import quotient_leq

    verdict = quotient_leq(ws.map(args.left), ws.map(args.right))
    lines = ["quotient-leq %s %s: %s"
             % (args.left, args.right, "true" if verdict else "false")]
    return (EXIT_OK if verdict else EXIT_FALSE), lines, {"leq": verdict}


def cmd_corelation_check(ws, args):
    from . import corelations

    bad = ws.violations("blockmetric", args.name)
    if bad:
        return _report_violations("corelation %s" % args.name, bad)
    bm = ws.blockmetric(args.name)
    lines = ["corelation %s:" % args.name]
    payload = {}
    for law, witness in (("reflexive", corelations.reflexive_witness(bm)),
                         ("symmetric", corelations.symmetric_witness(bm))):
        payload[law] = witness is None
        lines.append("  %s: %s" % (law, "false" if witness else "true"))
        if witness:
            lines.append("    witness: %s" % witness.detail)
    if payload["reflexive"]:
        trans = corelations.is_transitive(bm)
        lines.append("  transitive: %s" % ("true" if trans else "false"))
    else:
        trans = None
        lines.append("  transitive: not defined (non-reflexive)")
    equiv = payload["reflexive"] and payload["symmetric"] and bool(trans)
    lines.append("  equivalence: %s" % ("true" if equiv else "false"))
    payload.update(transitive=trans, equivalence=equiv)
    return (EXIT_OK if equiv else EXIT_FALSE), lines, payload


def cmd_corelation_effective(ws, args):
    from . import corelations

    bm = ws.blockmetric(args.name)
    try:
        locus = corelations.zero_locus(bm)
        verdict = corelations.is_effective(bm, locus)
    except ValueError as exc:
        return _refused("corelation effective %s" % args.name, exc)
    lines = ["corelation effective %s: %s"
             % (args.name, "true" if verdict else "false"),
             "  zero locus: %s" % (" ".join(locus) if locus else "-")]
    return (EXIT_OK if verdict else EXIT_FALSE), lines, \
        {"effective": verdict, "zero_locus": list(locus)}


def cmd_corelation_from_subset(ws, args):
    from . import corelations
    from .limits import split_labels

    space = ws.space(args.space)
    subset = () if args.subset in ("", "-") else tuple(
        split_labels(args.subset))
    # A point label must name that one point, and nothing else.
    if len(subset) != 1 and args.subset in space.labels:
        raise ValueError("subset %r is both a point label and %s" % (
            args.subset, "a list of %d labels" % len(subset) if subset
            else "the empty subset"))
    bm = corelations.gamma_from_subset(space, subset)
    lines = []
    for name in ("g00", "g01", "g10", "g11"):
        lines += _matrix_lines("%s" % name, space.labels, getattr(bm, name))
    return EXIT_OK, lines, blockmetric_entry("from-subset", bm, args.space)


def cmd_idempotent_check(ws, args):
    from . import idempotents

    cm = ws.costmatrix(args.name)
    verdict = idempotents.is_idempotent(cm)
    lines = ["idempotent %s: %s" % (args.name, "true" if verdict else "false")]
    return (EXIT_OK if verdict else EXIT_FALSE), lines, {"idempotent": verdict}


def cmd_idempotent_factor(ws, args):
    from . import idempotents
    from .limits import pair_label

    cm = ws.costmatrix(args.name)
    try:
        report = idempotents.factor_through_zero_diagonal(cm)
    except ValueError as exc:
        return _refused("idempotent factor %s" % args.name, exc)
    lines = ["idempotent factor %s:" % args.name,
             "  zero diagonal: %s" % (" ".join(report.zero_diagonal)
                                      if report.zero_diagonal else "-")]
    for (x, y) in sorted(report.witnesses):
        w = report.witnesses[(x, y)]
        lines.append("  %s: %s" % (pair_label(x, y),
                                   w if w is not None else "vacuous"))
    # A key is the pair label without its parentheses, so labels that
    # hold commas still give one key per pair.
    payload = {"zero_diagonal": list(report.zero_diagonal),
               "witnesses": {pair_label(*k)[1:-1]: v
                             for k, v in report.witnesses.items()}}
    return EXIT_OK, lines, payload


def cmd_relation_witness(ws, args):
    from . import idempotents

    rel = ws.relation(args.name)
    try:
        w = idempotents.relation_density_witness(rel, args.x, args.y)
    except ValueError as exc:
        return _refused("relation witness", exc)
    return EXIT_OK, ["relation witness %s %s %s: %s"
                     % (args.name, args.x, args.y, w)], {"witness": w}


def cmd_selftest(_ws, args):
    from . import selftest

    results = selftest.run_suite(args.suite, seed=args.seed)
    lines = [r.line() for r in results]
    ok = all(r.ok for r in results)
    payload = {"results": [{"number": r.number, "name": r.name, "ok": r.ok,
                            "detail": r.detail} for r in results]}
    return (EXIT_OK if ok else EXIT_FALSE), lines, payload


class Command(Frozen):
    """A leaf command; each argument is a name or a (name, options) pair
    for add_argument.  Its handler is cmd_ followed by its words, read
    from the module when the parser is built, so a wrapper bound over
    that name is what runs."""

    __slots__ = ("words", "help", "args", "needs_ws")

    def __init__(self, words, help, args, needs_ws=True):
        set_ = object.__setattr__
        set_(self, "words", words)
        set_(self, "help", help)
        set_(self, "args", args)
        set_(self, "needs_ws", needs_ws)


# The help of each group: the first word of a two-word command.
GROUPS = {"corelation": "corelation predicates",
          "idempotent": "min-plus idempotence operations",
          "relation": "boolean relation operations"}

COMMANDS = (
    Command("validate", "check metric / submetric / map axioms",
            (("kind", {"choices": ("space", "submetric", "map")}), "name")),
    Command("product", "binary product", ("left", "right")),
    Command("coproduct", "binary coproduct", ("left", "right")),
    Command("equalizer", "equalizer of two parallel maps", ("left", "right")),
    Command("pushout", "pushout along an embedding",
            (("--embedding", {"required": True}),
             ("--along", {"required": True}),
             ("--oracle", {"action": "store_true", "help": "also run the "
                           "shortest-path oracle and compare"}))),
    Command("cokernel-pair", "pushout of an embedding along itself",
            ("embedding",)),
    Command("factorize", "(surjection, embedding) factorization", ("map",)),
    Command("kernel-metric", "kernel metric of a morphism", ("map",)),
    Command("quotient", "quotient by a submetric", ("submetric",)),
    Command("quotient-leq", "compare two surjections out of X",
            ("left", "right")),
    Command("corelation check", "reflexive/symmetric/transitive report",
            ("name",)),
    Command("corelation effective", "effectiveness of an equivalence",
            ("name",)),
    Command("corelation from-subset", "subset block metric",
            ("space", ("subset",
                       {"help": "comma-separated labels; '-' for empty"}))),
    Command("idempotent check", "is the matrix its own min-plus square",
            ("name",)),
    Command("idempotent factor", "witnesses through the zero diagonal",
            ("name",)),
    Command("relation witness", "density witness for a related pair",
            ("name", "x", "y")),
    Command("selftest", "run a named acceptance suite",
            (("--suite", {"default": "all"}),
             ("--seed", {"type": int, "default": 0})), needs_ws=False),
)


class _Retry(Exception):
    """A partial parser met a request for help or an error."""


class _PartialParser(argparse.ArgumentParser):
    """A parser of some of the commands.  Where the full parser would
    print help or an error it raises _Retry instead and prints nothing,
    so that the full parser can print it."""

    def error(self, message):
        raise _Retry

    def print_help(self, file=None):
        raise _Retry


def build_parser(argv=None):
    """The parser of every command; given argv, a _PartialParser of only
    the commands whose words all appear in argv."""
    words = None if argv is None else set(argv)
    parser = (argparse.ArgumentParser if argv is None else _PartialParser)(
        prog="finmet",
        description="Finite separated Lawvere metric spaces: constructions, "
                    "quotients, pushouts, corelations.")
    parser.add_argument("-w", "--workspace", help="workspace JSON document")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        if words is not None and not words.issuperset(cmd.words.split(" ")):
            continue
        group, _, name = cmd.words.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=GROUPS[group]).add_subparsers(
                    dest=group + "_command", required=True)
        p = subs[group].add_parser(name, help=cmd.help)
        for arg in cmd.args:
            arg, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(arg, **options)
        handler = "cmd_" + cmd.words.replace(" ", "_").replace("-", "_")
        p.set_defaults(handler=globals()[handler], needs_ws=cmd.needs_ws)
    return parser


def parse_args(argv):
    """argv parsed by the full parser.  A call builds the subparsers of
    the commands it names only, and builds them all only to print help
    or an error: where a command's words all appear in argv, the partial
    parser reads argv as the full one does."""
    try:
        return build_parser(argv).parse_args(argv)
    except _Retry:
        return build_parser().parse_args(argv)


def main(argv=None):
    # Exact values may need more digits than Python's int/str conversion
    # limit (4300 since 3.11), so lift it: tokens of any length are read
    # and written.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        ws = None
        if args.needs_ws:
            if not args.workspace:
                raise ValueError("this command needs --workspace FILE")
            ws = load_workspace_file(args.workspace)
        code, lines, payload = args.handler(ws, args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message; print the message.
        msg = exc.args[0] if isinstance(exc, KeyError) else exc
        print("error: %s" % msg, file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        if args.as_json:
            payload = dict(payload)
            payload["ok"] = code == EXIT_OK
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout before the report was written.  Point
        # stdout at the null device, so the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before the report was written",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
