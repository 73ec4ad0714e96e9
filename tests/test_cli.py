import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli_cases import BAD_INPUT_CASES, CASES, TRIANGLE_X, WORKSPACE, run_case
from finmet import cli, corelations
from finmet.workspace import dump_workspace, load_workspace, load_workspace_file
from reference import token


def test_exit_code_contract():
    code, _ = run_case(["validate", "space", "X2"])
    assert code == 0
    code, _ = run_case(["validate", "space", "bad"])
    assert code == 1
    code, _ = run_case(["validate", "space", "nope"])
    assert code == 2


def test_missing_workspace_is_bad_input(capsys):
    assert cli.main(["validate", "space", "X2"]) == 2
    assert "workspace" in capsys.readouterr().err


def test_malformed_json_is_bad_input(tmp_path, capsys):
    p = tmp_path / "ws.json"
    p.write_text("{not json")
    assert cli.main(["-w", str(p), "validate", "space", "X2"]) == 2


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    # json.dumps cannot build a document nested this deep, so write it raw.
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000)
    assert cli.main(["-w", str(p), "validate", "space", "X"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: workspace is not valid JSON:")


def test_wrong_document_shape(tmp_path):
    p = tmp_path / "ws.json"
    p.write_text(json.dumps({"objects": {"kind": "space"}}))
    assert cli.main(["-w", str(p), "validate", "space", "X2"]) == 2


@pytest.mark.parametrize("name,doc,argv", BAD_INPUT_CASES,
                         ids=[case[0] for case in BAD_INPUT_CASES])
def test_bad_input_exits_2_with_one_error_line(name, doc, argv, tmp_path,
                                                capsys):
    if isinstance(doc, dict):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(doc))
        doc = str(path)
    full = argv if doc is None else ["-w", doc] + argv
    assert cli.main(full) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_validate_map_lists_each_space_once(tmp_path, capsys):
    """id: X -> X joins one space, so X's two triangle violations are
    listed once, and id itself stretches nothing."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(TRIANGLE_X))
    assert cli.main(["-w", str(path), "validate", "map", "id"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "validate map id: INVALID",
        "  triangle at (a, b, c): 5 > 1 + 1",
        "  triangle at (c, b, a): 5 > 1 + 1",
    ]


def test_every_subcommand_has_a_golden():
    pinned = [" ".join(w for w in argv if not w.startswith("-")) + " "
              for _, argv in CASES]
    unpinned = [cmd.words for cmd in cli.COMMANDS
                if not any(p.startswith(cmd.words + " ") for p in pinned)]
    assert not unpinned, "no golden case for: %s" % ", ".join(unpinned)


def test_json_mode_is_json(capsys):
    code, out = run_case(["--json", "validate", "space", "X2"])
    doc = json.loads(out)
    assert doc["ok"] is True and doc["violations"] == []
    code, out = run_case(["--json", "quotient-leq", "toS1", "collapse"])
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False and doc["leq"] is False


def test_selftest_subcommand_runs_without_workspace(capsys):
    assert cli.main(["selftest", "--suite", "metric-laws", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "criterion  1" in out and "PASS" in out


def test_empty_cost_matrix_is_idempotent(tmp_path, capsys):
    """The 0x0 matrix is its own min-plus square, so both idempotent
    commands answer true on it."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "costmatrix", "name": "C", "points": [], "matrix": []}]}))
    assert cli.main(["-w", str(path), "idempotent", "check", "C"]) == 0
    assert cli.main(["-w", str(path), "idempotent", "factor", "C"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "idempotent C: true", "idempotent factor C:", "  zero diagonal: -"]


def test_idempotent_factor_keys_every_pair_once(tmp_path, capsys):
    """Labels that hold commas still give one JSON witness key and one
    text line per pair, each written as a product's pair label."""
    labels = ["a,b", "a", "c", "b,c"]
    path = tmp_path / "commas.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "costmatrix", "name": "C", "points": labels,
         "matrix": [["0"] * 4] * 4}]}))
    assert cli.main(["-w", str(path), "--json", "idempotent", "factor",
                     "C"]) == 0
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    assert len(witnesses) == 16
    assert witnesses['"a,b",c'] == witnesses['a,"b,c"'] == "a,b"
    assert cli.main(["-w", str(path), "idempotent", "factor", "C"]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == len(set(lines)) == 16
    assert '  ("a,b",c): a,b' in lines and '  (a,"b,c"): a,b' in lines


def test_workspace_round_trip():
    ws = load_workspace_file(WORKSPACE)
    doc = dump_workspace(ws)
    ws2 = load_workspace(doc)
    assert dump_workspace(ws2) == doc


# Two equal spaces under different names, and a map on the second.
_EQUAL_SPACES = {"objects": [
    {"kind": "space", "name": "A", "points": ["a"], "dist": [["0"]]},
    {"kind": "space", "name": "B", "points": ["a"], "dist": [["0"]]},
    {"kind": "map", "name": "m", "source": "B", "target": "B",
     "assignment": ["a"]},
]}


# Mixed denominators whose least common multiple exceeds 2**64, INF,
# and a matrix all of whose entries share the factor 2.
_FRACTIONS = {"objects": [
    {"kind": "space", "name": "Z", "points": ["a", "b", "c"],
     "dist": [["0", "1/3", "inf"], ["1/2305843009213693951", "0", "7/6"],
              ["inf", "1/2147483647", "0"]]},
    {"kind": "costmatrix", "name": "rho", "points": ["x", "y"],
     "matrix": [["2", "4"], ["inf", "6"]]},
]}


@pytest.mark.parametrize("doc", [WORKSPACE, _EQUAL_SPACES, _FRACTIONS],
                         ids=["fixture", "equal_spaces", "fractions"])
def test_dump_of_load_is_the_document(doc):
    if isinstance(doc, str):
        with open(doc, encoding="utf-8") as fh:
            doc = json.load(fh)
    dumped = dump_workspace(load_workspace(doc))
    assert json.dumps(dumped, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_duplicate_names_rejected():
    doc = {"objects": [
        {"kind": "space", "name": "s", "points": ["a"], "dist": [["0"]]},
        {"kind": "space", "name": "s", "points": ["b"], "dist": [["0"]]},
    ]}
    with pytest.raises(ValueError):
        load_workspace(doc)


def test_unknown_kind_rejected():
    doc = {"objects": [{"kind": "gadget", "name": "g"}]}
    with pytest.raises(ValueError):
        load_workspace(doc)


def test_pushout_oracle_flag_reports_agreement():
    code, out = run_case(["pushout", "--embedding", "i", "--along", "f",
                          "--oracle"])
    assert code == 0
    assert "formula vs oracle: AGREE" in out


# Values whose ints lie beyond float range: numerators and denominators
# near 10**320.  X and B have different denominators, so a construction
# on both puts each over a common one by a factor near 10**320, and the
# factoring of R meets an INF beside BIG.
_HUGE = {"H1": F(3 ** 671, 2 ** 1063), "H2": F(7 ** 379, 5 ** 458),
         "BIG": F(10 ** 320 + 1), "SMALL": F(1, 10 ** 320 + 3)}
_HUGE["H12"] = _HUGE["H1"] + _HUGE["H2"]
_HUGE_TOKENS = {name: token(v) for name, v in _HUGE.items()}
_HUGE_DOC = {"objects": [
    {"kind": "space", "name": "A", "points": ["s"], "dist": [["0"]]},
    {"kind": "space", "name": "X", "points": ["p", "x"],
     "dist": [["0", _HUGE_TOKENS["H1"]], ["inf", "0"]]},
    {"kind": "space", "name": "B", "points": ["q", "b"],
     "dist": [["0", "inf"], [_HUGE_TOKENS["H2"], "0"]]},
    {"kind": "map", "name": "i", "source": "A", "target": "X",
     "assignment": ["p"]},
    {"kind": "map", "name": "f", "source": "A", "target": "B",
     "assignment": ["q"]},
    {"kind": "costmatrix", "name": "R", "points": ["x", "y", "z"],
     "matrix": [["0", "inf", _HUGE_TOKENS["BIG"]],
                ["inf", "0", _HUGE_TOKENS["SMALL"]],
                ["inf", "inf", "0"]]}]}
_HUGE_GAMMA = """\
  points: 0:q 0:b 1:p 1:x
    0 inf 0 {H1}
    {H2} 0 {H2} {H12}
    0 inf 0 {H1}
    inf inf inf 0
"""


@pytest.mark.parametrize("argv,want", [
    (["product", "X", "B"], """\
product X x B:
  points: (p,q) (p,b) (x,q) (x,b)
  dist:
    0 inf {H1} inf
    {H2} 0 {H2} {H1}
    inf inf 0 inf
    inf inf {H2} 0
projection 1:
  (p,q) -> p
  (p,b) -> p
  (x,q) -> x
  (x,b) -> x
projection 2:
  (p,q) -> q
  (p,b) -> b
  (x,q) -> q
  (x,b) -> b
"""),
    (["coproduct", "X", "B"], """\
coproduct X + B:
  points: 0:p 0:x 1:q 1:b
  dist:
    0 {H1} inf inf
    inf 0 inf inf
    inf inf 0 inf
    inf inf {H2} 0
injection 1:
  p -> 0:p
  x -> 0:x
injection 2:
  q -> 1:q
  b -> 1:b
"""),
    (["pushout", "--embedding", "i", "--along", "f", "--oracle"],
     "pushout gamma:\n" + _HUGE_GAMMA + """\
apex:
  points: [0:q] [0:b] [1:x]
  dist:
    0 inf {H1}
    {H2} 0 {H12}
    inf inf 0
leg from f:
  q -> [0:q]
  b -> [0:b]
leg from i:
  p -> [0:q]
  x -> [1:x]
oracle gamma:
""" + _HUGE_GAMMA + "formula vs oracle: AGREE\n"),
    (["idempotent", "factor", "R"], """\
idempotent factor R:
  zero diagonal: x y z
  (x,x): x
  (x,y): vacuous
  (x,z): x
  (y,x): vacuous
  (y,y): y
  (y,z): y
  (z,x): vacuous
  (z,y): vacuous
  (z,z): z
"""),
], ids=["product", "coproduct", "pushout_oracle", "idempotent_factor"])
def test_values_beyond_float_range_are_exact(argv, want, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_DOC))
    assert cli.main(["-w", str(path)] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == want.format(**_HUGE_TOKENS)


def test_values_of_any_length_are_read_and_written(tmp_path, capsys):
    """Exact values beyond Python's 4300-digit int/str limit: the cross
    entry 1/p + 1/q of the subset corelation at b has a 4401-digit
    denominator, and a 4401-digit token is read."""
    p, q = 10 ** 2200 + 3, 10 ** 2200 + 7
    ab, bc, ac = "1/%d" % p, "1/%d" % q, "1/1" + "0" * 2300
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "space", "name": "Z", "points": ["a", "b", "c"],
         "dist": [["0", ab, ac], [ab, "0", bc], [ac, bc, "0"]]},
        {"kind": "space", "name": "W", "points": ["u", "v"],
         "dist": [["0", "1/1" + "0" * 4400], ["1/1" + "0" * 4400, "0"]]}]}))
    assert cli.main(["-w", str(path), "--json", "corelation", "from-subset",
                     "Z", "b"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert F(json.loads(captured.out)["g01"][0][2]) == F(1, p) + F(1, q)
    assert cli.main(["-w", str(path), "validate", "space", "W"]) == 0
    assert capsys.readouterr().out == "validate space W: VALID\n"


_NOT_IDEMPOTENT = {"objects": [
    {"kind": "costmatrix", "name": "C", "points": ["x", "y"],
     "matrix": [["1", "1"], ["inf", "0"]]}]}


@pytest.mark.parametrize("doc,argv,line", [
    (WORKSPACE, ["corelation", "effective", "single"],
     "corelation effective single: zero locus is only defined for "
     "equivalences"),
    (_NOT_IDEMPOTENT, ["idempotent", "factor", "C"],
     "idempotent factor C: input is not min-plus idempotent"),
    (WORKSPACE, ["relation", "witness", "R", "x", "z"],
     "relation witness: pair is not related"),
], ids=["corelation_effective", "idempotent_factor", "relation_witness"])
def test_library_refusal_is_an_exit_1_report(doc, argv, line, tmp_path,
                                              capsys):
    """A property the library refuses to decide exits 1 with one line,
    the command's title and the error, and the error as JSON payload."""
    if isinstance(doc, dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        doc = str(path)
    assert cli.main(["-w", doc] + argv) == 1
    assert cli.main(["-w", doc, "--json"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    error = line.split(": ", 1)[1]
    assert captured.out == line + "\n" + json.dumps(
        {"error": error, "ok": False}, indent=2, sort_keys=True) + "\n"


def test_corelation_effective_checks_the_equivalence_once(monkeypatch):
    calls = []
    real = corelations.is_equivalence
    monkeypatch.setattr(corelations, "is_equivalence",
                        lambda bm: calls.append(bm) or real(bm))
    code, out = run_case(["corelation", "effective", "equivA"])
    assert code == 0 and out.startswith("corelation effective equivA: true")
    assert len(calls) == 1


def test_from_subset_names_product_points(tmp_path, capsys):
    """Labels in the subset split at commas outside parentheses, so the
    label of a product point names that point."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "space", "name": "P", "points": ["(a,b)", "(a,c)", "d"],
         "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]}]}))
    ws = load_workspace_file(str(path))
    for subset, want in [("(a,b)", ("(a,b)",)), ("(a,c),d", ("(a,c)", "d")),
                         ("d,(a,b)", ("d", "(a,b)"))]:
        assert cli.main(["-w", str(path), "--json", "corelation",
                         "from-subset", "P", subset]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        bm = corelations.gamma_from_subset(ws.space("P"), want)
        assert json.loads(captured.out)["g01"] == bm.g01.tokens()


def test_from_subset_refuses_a_label_that_is_also_a_list(tmp_path, capsys):
    """"a,b" names the point a,b and the subset {a, b} alike, so it is
    refused; the point's own label, a list of the others and a plain
    label still answer."""
    path = tmp_path / "comma.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "space", "name": "Z", "points": ["a", "b", "a,b"],
         "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}]}))
    assert cli.main(["-w", str(path), "corelation", "from-subset", "Z",
                     "a,b"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: subset 'a,b' is both a point label and "
                            "a list of 2 labels\n")
    for subset in ("a", "b,a", "-"):
        assert cli.main(["-w", str(path), "corelation", "from-subset", "Z",
                         subset]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_closed_stdout_exits_2_with_one_error_line(as_json, tmp_path):
    """A reader that closes the pipe after one line gets no traceback:
    the CLI exits 2 with one error line, not 1, which means false."""
    n = 20
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "space", "name": "Z", "points": ["z%d" % i for i in range(n)],
         "dist": [[str(abs(i - j)) for j in range(n)] for i in range(n)]}]}))
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "finmet.cli", "-w", str(path)] + as_json
        + ["product", "Z", "Z"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (
        2, b"error: output closed before the report was written\n")


@pytest.mark.parametrize("argv", [["relation", "witness", "R", "x", "nope"],
                                  ["corelation", "from-subset", "X2", "nope"]])
def test_unknown_label_error_line_is_unquoted(argv, capsys):
    assert cli.main(["-w", WORKSPACE] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no point labelled 'nope'\n"


@pytest.mark.parametrize("label", ["-", ""])
def test_from_subset_refuses_an_empty_subset_that_is_a_point(label,
                                                             tmp_path,
                                                             capsys):
    """"-" and "" both spell the empty subset; on a space with a point of
    that label the argument is ambiguous and exits 2."""
    path = tmp_path / "z.json"
    path.write_text(json.dumps({"objects": [
        {"kind": "space", "name": "Z", "points": [label, "a"],
         "dist": [["0", "1"], ["1", "0"]]}]}))
    assert cli.main(["-w", str(path), "corelation", "from-subset", "Z",
                     label]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: subset %r is both a point label and "
                            "the empty subset\n" % label)


@pytest.mark.parametrize("argv", [argv for _, argv in CASES],
                         ids=[name for name, _ in CASES])
def test_the_partial_parser_reads_argv_as_the_full_one(argv):
    assert vars(cli.parse_args(argv)) == vars(
        cli.build_parser().parse_args(argv))


# Run with -S, so that no .pth file imports anything first, and with src
# put on sys.path by hand in place of PYTHONPATH.
_FOOTPRINT = """
import sys
sys.path.insert(0, %r)
import finmet.%s
print(" ".join(m for m in ("dataclasses", "finmet.selftest", "finmet.harness")
               if m in sys.modules))
"""
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


@pytest.mark.parametrize("module", ["cli", "workspace"])
def test_import_leaves_out_dataclasses_and_the_suites(module):
    out = subprocess.run([sys.executable, "-S", "-c",
                          _FOOTPRINT % (_SRC, module)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == ""


def test_selftest_command_imports_the_suites_when_it_runs():
    code = _FOOTPRINT % (_SRC, "cli") + (
        "code = finmet.cli.main(['selftest', '--suite', 'pinned-fixtures'])\n"
        "assert 'finmet.selftest' in sys.modules\n"
        "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ""
    assert lines[1].startswith("criterion 11 pinned-fixtures") \
        and "PASS" in lines[1]
