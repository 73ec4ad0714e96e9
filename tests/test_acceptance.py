"""The acceptance gate: one check per criterion, one printed line each.

Criteria 1-11 delegate to the library's self-test suites (every suite
pairs the construction under test with an independent oracle), each run
with seeds 0, 1 and 2; criterion 12 pins the CLI output byte-for-byte
against the golden files.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cli_cases import CASES, GOLDEN_DIR, golden_text, run_case
from finmet.selftest import SUITES, run_suite

SUITE_ORDER = list(SUITES)
SEEDS = (0, 1, 2)


def _criterion_id(k, name, seed):
    """criterion01_metric_laws for seed 0, criterion01_metric_laws_seed1
    for seed 1, and so on."""
    base = "criterion%02d_%s" % (k + 1, name.replace("-", "_"))
    return base if seed == 0 else "%s_seed%d" % (base, seed)


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, id=_criterion_id(k, name, seed))
    for seed in SEEDS for k, name in enumerate(SUITE_ORDER)])
def test_criterion(name, seed):
    (result,) = run_suite(name, seed=seed)
    print(result.line())
    assert result.ok, result.line()


def test_criterion12_cli_golden():
    mismatches = []
    for case_name, argv in CASES:
        code, out = run_case(argv)
        path = os.path.join(GOLDEN_DIR, case_name + ".txt")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            want = fh.read()
        if golden_text(code, out) != want:
            mismatches.append(case_name)
    line = "criterion 12 cli-golden             %s  (%d cases)" % (
        "FAIL" if mismatches else "PASS", len(CASES))
    print(line)
    assert not mismatches, "output drifted for: %s" % ", ".join(mismatches)


def test_golden_files_are_exactly_the_cases():
    """One golden per case and no other file: regen_golden.py never
    deletes, so a renamed case would leave its old golden behind."""
    want = sorted(name + ".txt" for name, _ in CASES)
    assert sorted(os.listdir(GOLDEN_DIR)) == want
