import itertools
import os
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.extarith import INF, ZERO, fin
from finmet.idempotents import (BoolRelation, CostMatrix, bool_compose,
                                factor_through_zero_diagonal, is_bool_idempotent,
                                is_idempotent, minplus_square,
                                relation_density_witness)
from finmet.idempotents import FactorReport
from finmet.minplus import minplus_closure
from test_minplus import (SMALL, TINY, reference_closure, reference_product,
                          values)


def closed_matrix(rng, n, grid=None):
    grid = grid or [ZERO, fin(1, 2), fin(1), fin(2), INF]
    cost = [[ZERO if i == j else rng.choice(grid) for j in range(n)]
            for i in range(n)]
    return CostMatrix(tuple("p%d" % i for i in range(n)), minplus_closure(cost))


def test_square_pinned():
    cm = CostMatrix(("x", "y"), ((fin(1), fin(2)), (ZERO, INF)))
    sq = minplus_square(cm)
    # (x,x): min(1+1, 2+0) = 2; (y,y): min(0+2, inf+inf) = 2
    assert sq.rho == ((fin(2), fin(3)), (fin(1), fin(2)))


def test_square_needs_points():
    with pytest.raises(ValueError):
        minplus_square(CostMatrix((), ()))


def test_closures_are_idempotent():
    rng = random.Random(91)
    for t in range(150):
        cm = closed_matrix(rng, rng.randint(1, 5))
        assert is_idempotent(cm)


def test_factor_requires_idempotent():
    cm = CostMatrix(("x", "y"), ((fin(1), fin(2)), (ZERO, INF)))
    assert not is_idempotent(cm)
    with pytest.raises(ValueError):
        factor_through_zero_diagonal(cm)


def test_factor_witnesses_attain_the_value():
    rng = random.Random(93)
    for t in range(150):
        cm = closed_matrix(rng, rng.randint(1, 5))
        report = factor_through_zero_diagonal(cm)
        assert report.ok
        idx = {lab: k for k, lab in enumerate(cm.labels)}
        for (x, y), a in report.witnesses.items():
            if a is None:
                continue
            i, j, k = idx[x], idx[y], idx[a]
            assert cm.rho[k][k] == ZERO
            assert cm.rho[i][k] + cm.rho[k][j] == cm.rho[i][j]


def test_factor_with_nonzero_diagonal_point():
    # an idempotent matrix with an infinitely self-distant point
    rho = (
        (ZERO, fin(1), INF),
        (fin(1), ZERO, INF),
        (INF, INF, INF))
    cm = CostMatrix(("x", "y", "z"), rho)
    assert is_idempotent(cm)
    report = factor_through_zero_diagonal(cm)
    assert report.zero_diagonal == ("x", "y")
    assert report.ok
    assert report.witnesses[("x", "y")] == "x"   # least index tie-break
    assert report.witnesses[("z", "z")] is None  # infinite, vacuous


def test_least_index_tie_break():
    rho = (
        (ZERO, ZERO, fin(1)),
        (ZERO, ZERO, fin(1)),
        (fin(1), fin(1), ZERO))
    cm = CostMatrix(("x", "y", "z"), rho)
    report = factor_through_zero_diagonal(cm)
    # both x and y attain the routed value; the least index wins
    assert report.witnesses[("z", "x")] == "x"
    assert report.witnesses[("x", "y")] == "x"


def test_exhaustive_small_idempotents_factor():
    grid = (ZERO, fin(1), INF)
    for n in (1, 2):
        labels = tuple("p%d" % i for i in range(n))
        for cells in itertools.product(grid, repeat=n * n):
            rho = tuple(tuple(cells[i * n + j] for j in range(n))
                        for i in range(n))
            cm = CostMatrix(labels, rho)
            if not is_idempotent(cm):
                continue
            assert factor_through_zero_diagonal(cm).ok, rho


def test_bool_compose_pinned():
    a = ((True, False), (False, True))
    b = ((False, True), (True, False))
    assert bool_compose(a, b) == b


def test_relation_witness_exhaustive_small():
    for n in (1, 2, 3):
        labels = tuple("p%d" % i for i in range(n))
        for bits in itertools.product((False, True), repeat=n * n):
            rel = tuple(tuple(bits[i * n + j] for j in range(n))
                        for i in range(n))
            r = BoolRelation(labels, rel)
            if not is_bool_idempotent(r):
                continue
            for i in range(n):
                for j in range(n):
                    if not rel[i][j]:
                        continue
                    a = relation_density_witness(r, labels[i], labels[j])
                    assert a is not None
                    k = labels.index(a)
                    assert rel[i][k] and rel[k][k] and rel[k][j]


def test_relation_witness_errors():
    r = BoolRelation(("x", "y"), ((True, False), (False, True)))
    with pytest.raises(ValueError):
        relation_density_witness(r, "x", "y")  # unrelated pair
    bad = BoolRelation(("x", "y"), ((False, True), (True, False)))
    assert not is_bool_idempotent(bad)
    with pytest.raises(ValueError):
        relation_density_witness(bad, "x", "y")


# -- the integer idempotent checks against the ExtValue loops ---------------

def reference_factor(labels, rho):
    n = len(labels)
    a_idx = [i for i in range(n) if rho[i][i] == ZERO]
    witnesses = {}
    failures = []
    for x in range(n):
        for y in range(n):
            pair = (labels[x], labels[y])
            if rho[x][y].is_inf:
                witnesses[pair] = None
                continue
            for a in a_idx:
                if rho[x][a] + rho[a][y] == rho[x][y]:
                    witnesses[pair] = labels[a]
                    break
            else:
                failures.append(pair)
    return FactorReport(zero_diagonal=tuple(labels[i] for i in a_idx),
                        witnesses=witnesses, failures=tuple(failures))


@st.composite
def routed_costs(draw):
    """min over a in T of X(x, a) + X(a, y) for a closed zero-diagonal X:
    idempotent, with a zero diagonal at least on T.  Sometimes one entry
    is raised afterwards, which usually breaks idempotence."""
    n = draw(st.integers(1, 5))
    cost = draw(st.lists(st.lists(st.just(ZERO) | values, min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    x = reference_closure([[ZERO if i == j else v for j, v in enumerate(row)]
                           for i, row in enumerate(cost)])
    t = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    rho = [list(row) for row in reference_product(
        [[row[a] for a in t] for row in x],
        [[x[a][y] for a in t] for y in range(n)])]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rho[i][j] = rho[i][j] + draw(values)
    return rho


@settings(deadline=None)
@given(routed_costs())
@example([[ZERO, TINY], [INF, SMALL]])
@example([[ZERO, TINY], [SMALL, SMALL + TINY]])
def test_factor_matches_extvalue_loop(rho):
    labels = tuple("p%d" % i for i in range(len(rho)))
    cm = CostMatrix(labels, rho)
    idempotent = reference_product(rho, tuple(zip(*rho))) == tuple(
        tuple(row) for row in rho)
    assert is_idempotent(cm) == idempotent
    if not idempotent:
        with pytest.raises(ValueError):
            factor_through_zero_diagonal(cm)
        return
    assert factor_through_zero_diagonal(cm) == reference_factor(labels, rho)


def reference_bool_compose(rel_a, rel_b):
    n = len(rel_a)
    return tuple(
        tuple(any(rel_a[i][k] and rel_b[k][j] for k in range(n))
              for j in range(n))
        for i in range(n)
    )


relations = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))


@given(relations, relations)
def test_bool_compose_matches_any_loop(rel_a, rel_b):
    n = min(len(rel_a), len(rel_b))
    rel_a = [row[:n] for row in rel_a[:n]]
    rel_b = [row[:n] for row in rel_b[:n]]
    assert bool_compose(rel_a, rel_b) == reference_bool_compose(rel_a, rel_b)
