"""The FAIL path of the self-test runner: plant one fault, read the line.

Each planted fault makes its suite stop at the first check it breaks,
so the criterion line names that suite's number, its name and the
formatted counterexample, or the exception the suite raised.  Two
tests hold suite 10's pruned enumeration to the unpruned scan and pin
how many full matrices reach its second product, and the last ties
criterion 11's fixtures to the workspace the CLI goldens read.
"""

import itertools
from math import inf
from types import SimpleNamespace
from unittest.mock import ANY

import pytest

from cli_cases import WORKSPACE
from finmet import (cli, corelations, harness, idempotents, pushouts,
                    selftest)
from finmet.workspace import load_workspace_file


@pytest.mark.parametrize("module,attr,fake,suite,line", [
    # A mediator search that ignores its constraints finds two diagonal
    # fillers for the first square and a mediator for a pair of
    # surjections that is not ordered; one that finds nothing misses the
    # one filler and the first ordered pair.
    (selftest, "enumerate_mediators",
     lambda s, t, precompose=(), postcompose=():
         harness.enumerate_mediators(s, t),
     "factorization",
     "criterion  2 factorization          FAIL  "
     "(2 diagonal fillers at square 0)"),
    (selftest, "enumerate_mediators",
     lambda s, t, precompose=(), postcompose=(): [],
     "factorization",
     "criterion  2 factorization          FAIL  "
     "(0 diagonal fillers at square 0)"),
    (selftest, "enumerate_mediators",
     lambda s, t, precompose=(), postcompose=():
         harness.enumerate_mediators(s, t),
     "duality",
     "criterion  3 duality                FAIL  "
     "(three-way disagreement at pair 0)"),
    (selftest, "enumerate_mediators",
     lambda s, t, precompose=(), postcompose=(): [],
     "duality",
     "criterion  3 duality                FAIL  "
     "(three-way disagreement at pair 2)"),
    # Glued with no glue pairs, the closure is the coproduct metric, which
    # the genuine pushout's apex, glued at square 0, does not match.
    (pushouts, "_glued_coproduct",
     lambda i, f: pushouts.glue(pushouts.coproduct(f.target, i.target)[0],
                                []),
     "pushout-universal",
     "criterion  5 pushout-universal      FAIL  "
     "(genuine pushout refuted at square 0)"),
    # A closure that equals every matrix refuses nothing, so a corruption
    # passes.
    (pushouts, "_glued_coproduct", lambda i, f: SimpleNamespace(gamma=ANY),
     "pushout-universal",
     "criterion  5 pushout-universal      FAIL  "
     "(corrupted pushout accepted (attempt 1))"),
    (selftest, "is_embedding", lambda f: False, "embedding-stability",
     "criterion  6 embedding-stability    FAIL  "
     "(pushed-out leg not embedding at trial 0)"),
    # A report with no zero-diagonal points passes the grid scan, which
    # only asks that factoring does not raise, and is caught on the first
    # generated matrix.
    (idempotents, "factor_through_zero_diagonal",
     lambda cm: idempotents.FactorReport(()),
     "idempotence",
     "criterion 10 idempotence            FAIL  "
     "(generated matrix factors wrongly, trial 0)"),
    # With the independent product faked, the first grid matrix that the
    # pruned search keeps and that is not idempotent reaches the
    # library's check.
    (selftest, "_int_idempotent", lambda rho, n: True, "idempotence",
     "criterion 10 idempotence            FAIL  "
     "(grid matrix not idempotent: [[1]])"),
    (corelations, "is_transitive", lambda bm: True, "pinned-fixtures",
     "criterion 11 pinned-fixtures        FAIL  "
     "(corrected fixture unexpectedly transitive)"),
], ids=["factorization_unconstrained", "factorization_none",
        "duality_unconstrained", "duality_none", "pushout_genuine_refuted", "pushout_corruption_accepted",
        "embedding_stability", "idempotence", "idempotence_prefilter",
        "pinned_fixtures"])
def test_planted_fault_gives_fail_line(monkeypatch, module, attr, fake,
                                        suite, line):
    monkeypatch.setattr(module, attr, fake)
    (result,) = selftest.run_suite(suite, seed=0)
    assert not result.ok
    assert result.line() == line


def test_suite_that_raises_gives_fail_line(monkeypatch, capsys):
    """An exception inside a suite is that suite's failure (exit 1), not
    malformed input (exit 2)."""
    monkeypatch.setattr(corelations, "zero_locus", lambda bm: ("zz",))
    assert cli.main(["selftest", "--suite", "gamma-subset"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        "criterion  8 gamma-subset           FAIL  "
        "(KeyError: \"no point labelled 'zz'\")\n")


def test_gamma_subset_checks_each_equivalence_twice(monkeypatch):
    """Suite 8 checks each trial's equivalence once on its own and once
    inside zero_locus, whose locus it then reuses."""
    calls = []
    real = corelations.is_equivalence
    monkeypatch.setattr(corelations, "is_equivalence",
                        lambda bm: calls.append(bm) or real(bm))
    (result,) = selftest.run_suite("gamma-subset", seed=0)
    assert result.ok
    assert len(calls) == 600


def test_grid_idempotents_match_full_scan():
    """The pruned search keeps exactly the idempotents of the unpruned
    scan, in the same order: cost matrices over the grid up to 3 points,
    {inf, 0} relations up to 4."""
    for grid, top in ((selftest._INT_GRID, 3), ((inf, 0), 4)):
        for n in range(top + 1):
            scan = []
            for flat in itertools.product(grid, repeat=n * n):
                rho = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
                if selftest._int_idempotent(rho, n):
                    scan.append(rho)
            assert list(selftest._grid_idempotents(grid, n)) == scan, (grid, n)


def test_grid_search_prunes_unattained_pairs(monkeypatch):
    """Over suite 10's grids and sizes, 10,574 full matrices reach
    _int_idempotent; with the triangle prune alone, 34,442 did."""
    calls = []
    real = selftest._int_idempotent
    monkeypatch.setattr(selftest, "_int_idempotent",
                        lambda rho, n: calls.append(n) or real(rho, n))
    kept = sum(len(list(selftest._grid_idempotents(grid, n)))
               for grid, sizes in ((selftest._INT_GRID, (1, 2, 3)),
                                   ((inf, 0), (1, 2, 3, 4)))
               for n in sizes)
    assert kept == 3224 + 2496
    assert len(calls) == 10574


def test_workspace_fixture_holds_the_pinned_fixtures():
    """The CLI goldens read the three corelations and the two-point space
    that criterion 11 checks.  lookup reads each whether or not it meets
    its contract, as literal is invalid by design."""
    ws = load_workspace_file(WORKSPACE)
    for name, fixture in (
            ("single", selftest.singleton_nonsymmetric_fixture),
            ("literal", selftest.twopoint_literal_fixture),
            ("corrected", selftest.twopoint_corrected_fixture)):
        assert ws.lookup("blockmetric", name) == fixture(), name
    assert ws.lookup("space", "X2") == selftest.two_point_space()
