import argparse
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli_cases import BAD_INPUT_CASES, CASES, TRIANGLE_X, WORKSPACE, run_case
from finmet import cli
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


def _command_paths(parser, prefix=()):
    """Every leaf subcommand of parser, as its tuple of words."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [path for a in subs for name, p in a.choices.items()
            for path in _command_paths(p, prefix + (name,))]


def test_every_subcommand_has_a_golden():
    pinned = [tuple(w for w in argv if not w.startswith("-"))
              for _, argv in CASES]
    unpinned = [" ".join(path) for path in _command_paths(cli.build_parser())
                if not any(words[:len(path)] == path for words in pinned)]
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
