"""What one fresh `finmet` process imports, command by command.

The in-process CLI tests run with every finmet module already imported,
so they would not notice a handler that calls what it never imports.
Here each command runs one golden case in its own `python -S -m
finmet.cli` process under `-X importtime`, which lists every module the
process imports; -S keeps .pth files from importing anything first.
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli_cases import CASES, GOLDEN_DIR, WORKSPACE, golden_text
from finmet import cli

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# Every call imports these: cli imports the loader, and the loader
# builds every record from spaces.
LOADER = ("extarith", "minplus", "spaces", "workspace")
QUOTIENTS = ("maps", "quotients")
LIMITS = ("limits", "maps")
CORELATIONS = ("corelations", "limits", "maps", "quotients")
PUSHOUTS = ("limits", "maps", "pushouts", "quotients")
# The golden case each command runs, and the finmet modules it imports
# besides the loader's.
FOOTPRINT = {
    "validate": ("validate_space_x2", ()),
    "product": ("product_x2_x2", LIMITS),
    "coproduct": ("coproduct_x2_s1", LIMITS),
    "equalizer": ("equalizer_swap_ident", LIMITS),
    "pushout": ("pushout_worked", PUSHOUTS),
    "cokernel-pair": ("cokernel_pair_i", PUSHOUTS),
    "factorize": ("factorize_collapse", ("maps",)),
    "kernel-metric": ("kernel_metric_collapse", QUOTIENTS),
    "quotient": ("quotient_gammay", QUOTIENTS),
    "quotient-leq": ("quotient_leq_true", QUOTIENTS),
    "corelation check": ("corelation_check_single", CORELATIONS),
    "corelation effective": ("corelation_effective_equiva", CORELATIONS),
    "corelation from-subset": ("corelation_from_subset_a", CORELATIONS),
    "idempotent check": ("idempotent_check_rho", ("idempotents",)),
    # pair_label, which writes the witness keys, lives in limits.
    "idempotent factor": ("idempotent_factor_rho",
                          ("idempotents",) + LIMITS),
    "relation witness": ("relation_witness_rxy", ("idempotents",)),
    "selftest": ("selftest_metric_laws",
                 ("harness", "idempotents", "selftest") + PUSHOUTS
                 + CORELATIONS),
}
# No command needs these: fractions, with decimal and numbers, is
# imported only where an ExtValue is built, and typing not at all.
ABSENT = {"fractions", "decimal", "numbers", "typing"}


def run_fresh(argv):
    """(exit code, stdout, stderr lines, modules imported) of one fresh
    `python -S -m finmet.cli` process."""
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "finmet.cli"]
        + argv, capture_output=True, env=dict(os.environ, PYTHONPATH=_SRC))
    err = proc.stderr.decode("utf-8").splitlines()
    timed = [line for line in err if line.startswith("import time:")]
    imported = {line.rsplit("|", 1)[1].strip() for line in timed[1:]}
    return (proc.returncode, proc.stdout.decode("utf-8"),
            [line for line in err if line not in timed], imported)


def test_every_command_has_a_footprint():
    assert set(FOOTPRINT) == {cmd.words for cmd in cli.COMMANDS}


@pytest.mark.parametrize("words", sorted(FOOTPRINT))
def test_a_command_imports_only_what_it_runs(words):
    name, own = FOOTPRINT[words]
    argv = dict(CASES)[name]
    code, out, err, imported = run_fresh(
        argv if argv[0] == "selftest" else ["-w", WORKSPACE] + argv)
    with open(os.path.join(GOLDEN_DIR, name + ".txt"), encoding="utf-8",
              newline="") as fh:
        assert golden_text(code, out) == fh.read()
    assert err == []
    assert {m for m in imported if m.partition(".")[0] == "finmet"} == {
        "finmet", *("finmet." + m for m in LOADER + own)}
    assert not imported & ABSENT


# The space X and, beside it, one object whose entry cannot be built,
# with the error line that refuses the document.
_D = [["0", "1"], ["1", "0"]]
_X = {"kind": "space", "name": "X", "points": ["a", "b"], "dist": _D}
UNBUILDABLE = [
    ({"kind": "map", "name": "m", "source": "X", "target": "nope",
      "assignment": ["a", "b"]},
     "error: no space named 'nope' in workspace"),
    ({"kind": "submetric", "name": "G", "base": "X", "matrix": [["0"]]},
     "error: submetric matrix shape does not match base"),
    ({"kind": "blockmetric", "name": "E", "base": "X", "g00": [["0"]],
      "g01": _D, "g10": _D, "g11": _D},
     "error: block g00 shape does not match base"),
    ({"kind": "costmatrix", "name": "rho", "points": ["a", "a"],
      "matrix": _D},
     "error: duplicate point labels"),
]


@pytest.mark.parametrize("entry,error", UNBUILDABLE,
                         ids=[entry["kind"] for entry, _ in UNBUILDABLE])
def test_loading_builds_every_object(entry, error, tmp_path):
    """validate space X reads neither the bad object nor its module's
    operations, and the document is refused all the same."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"objects": [_X, entry]}))
    code, out, err, _ = run_fresh(["-w", str(path), "validate", "space", "X"])
    assert (code, out, err) == (2, "", [error])
