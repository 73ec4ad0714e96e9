"""Shared table of CLI invocations whose output is pinned byte-for-byte.

Each golden file stores "exit N" on the first line, then the captured
stdout.  Regenerate with `python3 tests/regen_golden.py` after a
deliberate output change.
"""

import os

HERE = os.path.dirname(os.path.abspath(__file__))
WORKSPACE = os.path.join(HERE, "fixtures", "workspace.json")
GOLDEN_DIR = os.path.join(HERE, "golden")

CASES = [
    ("validate_space_x2", ["validate", "space", "X2"]),
    ("validate_space_bad", ["validate", "space", "bad"]),
    ("validate_submetric_gammay", ["validate", "submetric", "gammaY"]),
    ("validate_map_collapse", ["validate", "map", "collapse"]),
    ("product_x2_x2", ["product", "X2", "X2"]),
    ("coproduct_x2_s1", ["coproduct", "X2", "S1"]),
    ("equalizer_swap_ident", ["equalizer", "swap", "ident"]),
    ("pushout_worked", ["pushout", "--embedding", "i", "--along", "f",
                        "--oracle"]),
    ("pushout_worked_json", ["--json", "pushout", "--embedding", "i",
                             "--along", "f", "--oracle"]),
    ("cokernel_pair_i", ["cokernel-pair", "i"]),
    ("factorize_collapse", ["factorize", "collapse"]),
    ("kernel_metric_collapse", ["kernel-metric", "collapse"]),
    ("quotient_gammay", ["quotient", "gammaY"]),
    ("quotient_leq_true", ["quotient-leq", "collapse", "toS1"]),
    ("quotient_leq_false", ["quotient-leq", "toS1", "collapse"]),
    ("corelation_check_single", ["corelation", "check", "single"]),
    ("corelation_check_corrected", ["corelation", "check", "corrected"]),
    ("corelation_check_literal", ["corelation", "check", "literal"]),
    ("corelation_check_equiva", ["corelation", "check", "equivA"]),
    ("corelation_check_flat", ["corelation", "check", "flat"]),
    ("corelation_check_flat_json", ["--json", "corelation", "check", "flat"]),
    ("corelation_effective_equiva", ["corelation", "effective", "equivA"]),
    ("corelation_from_subset_a", ["corelation", "from-subset", "X2", "a"]),
    ("corelation_from_subset_empty", ["corelation", "from-subset", "X2", "-"]),
    ("idempotent_check_rho", ["idempotent", "check", "rho"]),
    ("idempotent_factor_rho", ["idempotent", "factor", "rho"]),
    ("idempotent_factor_rho_json", ["--json", "idempotent", "factor", "rho"]),
    ("relation_witness_rxy", ["relation", "witness", "R", "x", "y"]),
    ("selftest_metric_laws", ["selftest", "--suite", "metric-laws",
                              "--seed", "0"]),
]

# Each bad input must exit 2 with nothing on stdout and one "error:" line
# on stderr.  The second field is the workspace: the shared fixture's
# path, a document written to its own temporary file, or None for no -w.

# f: A -> B stretches d(s, t) = 1 to 3, so it is no morphism.
_STRETCHING_SPAN = [
    {"kind": "space", "name": "A", "points": ["s", "t"],
     "dist": [["0", "1"], ["1", "0"]]},
    {"kind": "space", "name": "B", "points": ["u", "v"],
     "dist": [["0", "3"], ["3", "0"]]},
    {"kind": "map", "name": "i", "source": "A", "target": "A",
     "assignment": ["s", "t"]},
    {"kind": "map", "name": "f", "source": "A", "target": "B",
     "assignment": ["u", "v"]},
]


def _space_doc(points, dist, *more):
    """A document with the space Z and the given further entries."""
    return {"objects": [{"kind": "space", "name": "Z", "points": points,
                         "dist": dist}, *more]}


_VALIDATE_Z = ["validate", "space", "Z"]
# The fixture's X2 with d(a, a) = 1, which no metric allows, and the two
# maps on it.
_X2_NONZERO_DIAGONAL = [
    {"kind": "space", "name": "X2", "points": ["a", "b"],
     "dist": [["1", "1"], ["1", "0"]]},
    {"kind": "map", "name": "swap", "source": "X2", "target": "X2",
     "assignment": ["b", "a"]},
    {"kind": "map", "name": "ident", "source": "X2", "target": "X2",
     "assignment": ["a", "b"]},
]
# d(a, c) = 5 > d(a, b) + d(b, c) = 2: the triangle inequality fails.
_TRIANGLE_BREAKING = [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]
# Objects built on that non-metric X: the identity map and the block
# metric with every block d, which is no submetric of X + X.
TRIANGLE_X = {"objects": [
    {"kind": "space", "name": "X", "points": ["a", "b", "c"],
     "dist": _TRIANGLE_BREAKING},
    {"kind": "map", "name": "id", "source": "X", "target": "X",
     "assignment": ["a", "b", "c"]},
    {"kind": "blockmetric", "name": "E", "base": "X",
     **{b: _TRIANGLE_BREAKING for b in ("g00", "g01", "g10", "g11")}},
]}

BAD_INPUT_CASES = [
    ("missing_space", WORKSPACE, ["validate", "space", "nope"]),
    ("missing_workspace_flag", None, ["validate", "space", "X2"]),
    ("zero_denominator",
     {"objects": [{"kind": "space", "name": "Z", "points": ["a", "b"],
                   "dist": [["0", "1/0"], ["1", "0"]]}]},
     ["validate", "space", "Z"]),
    ("non_object_entry", {"objects": [3]}, ["validate", "space", "Z"]),
    ("expansive_pushout_leg", {"objects": _STRETCHING_SPAN},
     ["pushout", "--embedding", "i", "--along", "f"]),
    ("dist_not_a_list", _space_doc(["a"], 5), _VALIDATE_Z),
    ("points_a_string", _space_doc("ab", [["0", "1"], ["1", "0"]]),
     _VALIDATE_Z),
    ("points_not_strings", _space_doc([1], [["0"]]), _VALIDATE_Z),
    ("assignment_a_string",
     _space_doc(["a"], [["0"]], {"kind": "map", "name": "m", "source": "Z",
                                 "target": "Z", "assignment": "a"}),
     ["validate", "map", "m"]),
    ("relation_cell_not_0_or_1",
     {"objects": [{"kind": "relation", "name": "R", "points": ["x"],
                   "rel": [["no"]]}]},
     ["relation", "witness", "R", "x", "x"]),
    ("relation_witness_unknown_label", WORKSPACE,
     ["relation", "witness", "R", "x", "nope"]),
    ("relation_witness_empty_relation",
     {"objects": [{"kind": "relation", "name": "R", "points": [],
                   "rel": []}]},
     ["relation", "witness", "R", "x", "x"]),
    ("json_number_token", _space_doc(["a"], [[0]]), _VALIDATE_Z),
    ("plus_one_token", _space_doc(["a", "b"], [["0", "+1"], ["1", "0"]]),
     _VALIDATE_Z),
    ("unreduced_token", _space_doc(["a", "b"], [["0", "2/4"], ["1", "0"]]),
     _VALIDATE_Z),
    ("product_of_non_metric", _space_doc(["a", "b", "c"], _TRIANGLE_BREAKING),
     ["product", "Z", "Z"]),
    ("coproduct_of_non_metric",
     _space_doc(["a", "b", "c"], _TRIANGLE_BREAKING),
     ["coproduct", "Z", "Z"]),
    # gamma(a, b) = 5 lies above d(a, b) = 1, so S is no submetric.
    ("quotient_by_non_submetric",
     _space_doc(["a", "b"], [["0", "1"], ["1", "0"]],
                {"kind": "submetric", "name": "S", "base": "Z",
                 "matrix": [["0", "5"], ["5", "0"]]}),
     ["quotient", "S"]),
    ("kernel_metric_of_expansive_map", {"objects": _STRETCHING_SPAN},
     ["kernel-metric", "f"]),
    ("factorize_expansive_map", {"objects": _STRETCHING_SPAN},
     ["factorize", "f"]),
    ("from_subset_of_non_metric", {"objects": _X2_NONZERO_DIAGONAL},
     ["corelation", "from-subset", "X2", "a"]),
    ("equalizer_on_non_metric", {"objects": _X2_NONZERO_DIAGONAL},
     ["equalizer", "swap", "ident"]),
    ("unknown_suite", None, ["selftest", "--suite", "nope"]),
    ("cokernel_pair_on_non_metric", TRIANGLE_X, ["cokernel-pair", "id"]),
    ("pushout_on_non_metric", TRIANGLE_X,
     ["pushout", "--embedding", "id", "--along", "id"]),
    ("factorize_on_non_metric", TRIANGLE_X, ["factorize", "id"]),
    ("kernel_metric_on_non_metric", TRIANGLE_X, ["kernel-metric", "id"]),
    ("quotient_leq_on_non_metric", TRIANGLE_X, ["quotient-leq", "id", "id"]),
    ("effective_on_non_submetric", TRIANGLE_X,
     ["corelation", "effective", "E"]),
]


def run_case(argv):
    """Run one invocation in-process; returns (exit_code, stdout_text)."""
    import contextlib
    import io

    from finmet import cli

    full = ["-w", WORKSPACE] + argv
    if argv and argv[0] == "selftest":
        full = argv
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(full)
    return code, buf.getvalue()


def golden_text(code, out):
    return "exit %d\n%s" % (code, out)
