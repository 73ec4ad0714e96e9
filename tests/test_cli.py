import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli_cases import BAD_INPUT_CASES, CASES, TRIANGLE_X, WORKSPACE, run_case
from finmet import cli, corelations
from finmet.workspace import dump_workspace, load_workspace, load_workspace_file


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
