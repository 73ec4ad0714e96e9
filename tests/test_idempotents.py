import itertools
import os
import random
import sys
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.idempotents import (CostMatrix, factor_through_zero_diagonal,
                                is_idempotent, relation_density_witness)
from finmet.idempotents import FactorReport
from finmet.minplus import (IntMatrix, equals_own_square, minplus_closure,
                            minplus_matmul)
from finmet.selftest import _grid_idempotents
from reference import (HUGE_A, HUGE_B, SMALL, TINY, add, closure, fracs,
                       matrix, product, values)


def closed_matrix(rng, n, grid=None):
    grid = grid or [F(0), F(1, 2), F(1), F(2), None]
    cost = [[F(0) if i == j else rng.choice(grid) for j in range(n)]
            for i in range(n)]
    return CostMatrix(tuple("p%d" % i for i in range(n)),
                      minplus_closure(matrix(cost)))


def test_square_pinned():
    cm = CostMatrix(("x", "y"), IntMatrix(1, [[1, 2], [0, inf]]))
    sq = minplus_matmul(cm.rho, cm.rho)
    # (x,x): min(1+1, 2+0) = 2; (y,y): min(0+2, inf+inf) = 2
    assert sq == IntMatrix(1, [[2, 3], [1, 2]])


def test_empty_matrix_is_its_own_square():
    cm = CostMatrix((), IntMatrix(1, []))
    assert minplus_matmul(cm.rho, cm.rho) == cm.rho == IntMatrix(1, [])
    assert is_idempotent(cm)
    report = factor_through_zero_diagonal(cm)
    assert report == FactorReport(zero_diagonal=(), witnesses={})
    assert report.failures == ()


def test_closures_are_idempotent():
    rng = random.Random(91)
    for t in range(150):
        cm = closed_matrix(rng, rng.randint(1, 5))
        assert is_idempotent(cm)


def test_factor_requires_idempotent():
    cm = CostMatrix(("x", "y"), IntMatrix(1, [[1, 2], [0, inf]]))
    assert not is_idempotent(cm)
    with pytest.raises(ValueError):
        factor_through_zero_diagonal(cm)


def test_factor_witnesses_attain_the_value():
    rng = random.Random(93)
    for t in range(150):
        cm = closed_matrix(rng, rng.randint(1, 5))
        report = factor_through_zero_diagonal(cm)
        idx = {lab: k for k, lab in enumerate(cm.labels)}
        rho = fracs(cm.rho)
        assert len(report.witnesses) == len(rho) ** 2
        for (x, y), a in report.witnesses.items():
            if a is None:  # only an infinite entry has no witness
                assert rho[idx[x]][idx[y]] is None
                continue
            i, j, k = idx[x], idx[y], idx[a]
            assert rho[k][k] == 0
            assert add(rho[i][k], rho[k][j]) == rho[i][j]


def test_factor_with_nonzero_diagonal_point():
    # an idempotent matrix with an infinitely self-distant point
    rho = IntMatrix(1, [[0, 1, inf], [1, 0, inf], [inf, inf, inf]])
    cm = CostMatrix(("x", "y", "z"), rho)
    assert is_idempotent(cm)
    report = factor_through_zero_diagonal(cm)
    assert report.zero_diagonal == ("x", "y")
    assert [pair for pair, a in report.witnesses.items() if a is None] == [
        ("x", "z"), ("y", "z"), ("z", "x"), ("z", "y"), ("z", "z")]
    assert report.witnesses[("x", "y")] == "x"   # least index tie-break
    assert report.witnesses[("z", "z")] is None  # infinite, vacuous


def test_least_index_tie_break():
    rho = IntMatrix(1, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    cm = CostMatrix(("x", "y", "z"), rho)
    report = factor_through_zero_diagonal(cm)
    # both x and y attain the routed value; the least index wins
    assert report.witnesses[("z", "x")] == "x"
    assert report.witnesses[("x", "y")] == "x"


def test_exhaustive_small_idempotents_factor():
    grid = (F(0), F(1), None)
    for n in (1, 2):
        labels = tuple("p%d" % i for i in range(n))
        for cells in itertools.product(grid, repeat=n * n):
            rho = tuple(tuple(cells[i * n + j] for j in range(n))
                        for i in range(n))
            cm = CostMatrix(labels, matrix(rho))
            if not is_idempotent(cm):
                continue
            witnesses = factor_through_zero_diagonal(cm).witnesses
            assert [pair for pair, a in witnesses.items() if a is None] == [
                (labels[i], labels[j]) for i in range(n) for j in range(n)
                if rho[i][j] is None], rho


def reference_bool_compose(rel_a, rel_b):
    n = len(rel_a)
    return tuple(
        tuple(any(rel_a[i][k] and rel_b[k][j] for k in range(n))
              for j in range(n))
        for i in range(n)
    )


def as_relation(rel):
    """The {0, INF} cost matrix of a boolean relation on p0, p1, ..."""
    return CostMatrix(tuple("p%d" % i for i in range(len(rel))),
                      IntMatrix(1, [[0 if c else inf for c in row]
                                    for row in rel]))


def test_relation_witness_exhaustive_small():
    for n in (1, 2, 3):
        for bits in itertools.product((False, True), repeat=n * n):
            rel = tuple(tuple(bits[i * n + j] for j in range(n))
                        for i in range(n))
            r = as_relation(rel)
            assert is_idempotent(r) == (reference_bool_compose(rel, rel)
                                        == rel)
            if not is_idempotent(r):
                continue
            labels = r.labels
            for i in range(n):
                for j in range(n):
                    if not rel[i][j]:
                        continue
                    a = relation_density_witness(r, labels[i], labels[j])
                    k = labels.index(a)
                    assert rel[i][k] and rel[k][k] and rel[k][j]
    # Every idempotent relation up to 4 points, as suite 10 scans them:
    # the density witness of each related pair is the factor's witness.
    for n in (1, 2, 3, 4):
        labels = tuple("p%d" % i for i in range(n))
        for rho in _grid_idempotents((inf, 0), n):
            r = CostMatrix(labels, IntMatrix(1, rho))
            witnesses = factor_through_zero_diagonal(r).witnesses
            for i, j in itertools.product(range(n), repeat=2):
                if rho[i][j] == 0:
                    x, y = labels[i], labels[j]
                    assert relation_density_witness(r, x, y) == witnesses[
                        (x, y)], (rho, x, y)


def test_relation_witness_errors():
    r = as_relation(((True, False), (False, True)))
    with pytest.raises(ValueError, match="pair is not related"):
        relation_density_witness(r, "p0", "p1")
    with pytest.raises(KeyError):
        relation_density_witness(r, "p0", "nope")
    bad = as_relation(((False, True), (True, False)))
    assert not is_idempotent(bad)
    with pytest.raises(ValueError, match="relation is not idempotent"):
        relation_density_witness(bad, "p0", "nope")  # checked before labels
    with pytest.raises(KeyError):
        relation_density_witness(as_relation(()), "p0", "p0")


@st.composite
def routed_relations(draw):
    """x R y iff x X a and a X y for some a in T, where X is reflexive
    and transitive: idempotent, the relational form of routed_costs.
    Sometimes one cell is flipped afterwards, which may break that."""
    n = draw(st.integers(1, 6))
    x = [[i == j or draw(st.booleans()) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                x[i][j] = x[i][j] or (x[i][k] and x[k][j])
    t = draw(st.lists(st.integers(0, n - 1), unique=True))
    rel = [[any(x[i][a] and x[a][j] for a in t) for j in range(n)]
           for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rel[i][j] = not rel[i][j]
    return rel


relations = st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n))


@settings(deadline=None)
@given(relations | routed_relations(), st.integers(0, 5), st.integers(0, 5))
def test_relation_witness_matches_any_loop(rel, i, j):
    n = len(rel)
    i, j = i % n, j % n
    rel = tuple(map(tuple, rel))
    r = as_relation(rel)
    x, y = r.labels[i], r.labels[j]
    if reference_bool_compose(rel, rel) != rel:
        with pytest.raises(ValueError, match="relation is not idempotent"):
            relation_density_witness(r, x, y)
    elif not rel[i][j]:
        with pytest.raises(ValueError, match="pair is not related"):
            relation_density_witness(r, x, y)
    else:
        k = min(k for k in range(n) if rel[i][k] and rel[k][k] and rel[k][j])
        assert relation_density_witness(r, x, y) == r.labels[k]


# -- the integer idempotent checks against the reference loops --------------

def reference_factor(labels, rho):
    n = len(labels)
    a_idx = [i for i in range(n) if rho[i][i] == F(0)]
    witnesses = {}
    for x in range(n):
        for y in range(n):
            pair = (labels[x], labels[y])
            if rho[x][y] is None:
                witnesses[pair] = None
                continue
            # A finite pair with no witness is left out, so no report
            # equals this one.
            for a in a_idx:
                if add(rho[x][a], rho[a][y]) == rho[x][y]:
                    witnesses[pair] = labels[a]
                    break
    return FactorReport(zero_diagonal=tuple(labels[i] for i in a_idx),
                        witnesses=witnesses)


@st.composite
def routed_costs(draw):
    """min over a in T of X(x, a) + X(a, y) for a closed zero-diagonal X:
    idempotent, with a zero diagonal at least on T.  Sometimes one entry
    is raised afterwards, which usually breaks idempotence."""
    n = draw(st.integers(1, 5))
    cost = draw(st.lists(st.lists(st.just(F(0)) | values, min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    x = closure([[F(0) if i == j else v for j, v in enumerate(row)]
                           for i, row in enumerate(cost)])
    t = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    rho = [list(row) for row in product(
        [[row[a] for a in t] for row in x],
        [[x[a][y] for a in t] for y in range(n)])]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rho[i][j] = add(rho[i][j], draw(values))
    return rho


@settings(deadline=None)
@given(routed_costs())
@example([[F(0), TINY], [None, SMALL]])
@example([[F(0), TINY], [SMALL, SMALL + TINY]])
def test_factor_matches_reference(rho):
    labels = tuple("p%d" % i for i in range(len(rho)))
    cm = CostMatrix(labels, matrix(rho))
    idempotent = product(rho, tuple(zip(*rho))) == tuple(
        tuple(row) for row in rho)
    assert is_idempotent(cm) == idempotent
    if not idempotent:
        with pytest.raises(ValueError):
            factor_through_zero_diagonal(cm)
        return
    assert factor_through_zero_diagonal(cm) == reference_factor(labels, rho)


# -- is_idempotent on the matrix's own ints against the product route -------

@st.composite
def cost_matrices(draw):
    """A square cost matrix, up to 4 points, over values, 0 and
    entries whose ints over a common denominator are beyond float range.
    Half the time it is closed with a zero diagonal, which makes it
    idempotent."""
    n = draw(st.integers(0, 4))
    entry = values | st.just(F(0)) | st.sampled_from(HUGE_A + HUGE_B)
    rho = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                        min_size=n, max_size=n))
    if draw(st.booleans()):
        rho = closure([[F(0) if i == j else v
                                  for j, v in enumerate(row)]
                                 for i, row in enumerate(rho)])
    return rho


@settings(deadline=None)
@given(cost_matrices())
@example([])
@example([[None]])
@example([[F(0), None], [F(1, 3), F(0)]])
@example([[F(0), HUGE_A[1]], [None, F(0)]])
@example([[F(0), HUGE_A[0]], [HUGE_B[0], F(0)]])
# The square differs from the matrix in its last row only: (1, 1) is
# min(1/3 + 1/3, 1/3 + 1/3) = 2/3.
@example([[F(0), F(1, 3)], [F(1, 3), F(1, 3)]])
def test_is_idempotent_matches_the_product(rho):
    m = matrix(rho)
    cm = CostMatrix(tuple("p%d" % i for i in range(len(rho))), m)
    assert is_idempotent(cm) == (minplus_matmul(m, m) == m)


# -- equals_own_square through the zero diagonal against the full square ----

@st.composite
def partial_zero_diagonals(draw):
    """A square matrix, up to 5 points, over values, 0 and entries
    beyond float range, whose diagonal is often zero in part only: either
    min over a in T of X(x, a) + X(a, y) for a closed zero-diagonal X,
    zero on T and mostly positive elsewhere, or a random matrix squared
    until it is stable, at most six times.  Half the time one entry is
    then redrawn, which usually breaks idempotence."""
    n = draw(st.integers(1, 5))
    entry = values | st.just(F(0)) | st.sampled_from(HUGE_A + HUGE_B)
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if draw(st.booleans()):
        x = closure([[F(0) if i == j else v
                                for j, v in enumerate(row)]
                               for i, row in enumerate(cost)])
        t = draw(st.lists(st.integers(0, n - 1), unique=True))
        rho = product([[row[a] for a in t] for row in x],
                                [[x[a][y] for a in t] for y in range(n)])
    else:
        rho = tuple(map(tuple, cost))
        for _ in range(6):
            square = product(rho, tuple(zip(*rho)))
            if square == rho:
                break
            rho = square
    rho = [list(row) for row in rho]
    if draw(st.booleans()):
        # Half of these land between two zero-diagonal points, where only
        # a route outside them can show that the entry is too high.
        zero = [z for z in range(n) if rho[z][z] == F(0)]
        ends = st.integers(0, n - 1)
        if zero and draw(st.booleans()):
            ends = st.sampled_from(zero)
        i, j = draw(ends), draw(ends)
        rho[i][j] = draw(entry)
    return rho


@settings(deadline=None, max_examples=300)
@given(partial_zero_diagonals())
# Z = {0}: every entry routes through point 0, and point 1's own loop
# costs 1 + 1 = 2 by way of 0 and itself.
@example([[F(0), F(1)], [F(1), F(2)]])
@example([[F(0), HUGE_A[0], None], [HUGE_B[1], HUGE_A[0] + HUGE_B[1], None],
          [None, None, None]])
@example([[None, None], [None, None]])
# Z = {0, 2}: the square is 2v at (2, 0), routed through point 1 only.
@example([[F(0), F(0), F(0)], [F(1), F(1), F(0)],
          [None, F(1), F(0)]])
@example([[F(0), F(0), F(0)], [HUGE_A[1], HUGE_A[1], F(0)],
          [None, HUGE_A[1], F(0)]])
def test_equals_own_square_matches_the_full_square(rho):
    square = product(rho, tuple(zip(*rho)))
    assert equals_own_square(matrix(rho)) == (
        square == tuple(map(tuple, rho)))


def test_the_triangle_clause_outside_the_zero_diagonal_is_needed():
    """Z = {0, 2} and m = m[:, Z] * m[Z, :], yet m is not idempotent:
    its square is 2 at (2, 0), through point 1, outside Z, where m is
    INF.  So the first clause alone does not decide."""
    rho = ((F(0), F(0), F(0)), (F(1), F(1), F(0)),
           (None, F(1), F(0)))
    zero = [z for z in range(3) if rho[z][z] == F(0)]
    assert zero == [0, 2]
    assert product([[row[z] for z in zero] for row in rho],
                             [[rho[z][j] for z in zero]
                              for j in range(3)]) == rho
    assert product(rho, tuple(zip(*rho)))[2][0] == F(2)
    assert not equals_own_square(matrix(rho))


def test_equals_own_square_on_every_matrix_over_a_small_grid():
    """All 4**9 matrices of 3 x 3 over {0, 1, 2, inf}, and the smaller
    ones, against their square's entries taken one by one.  The entries
    are small ints or inf, so a float sum is exact.  The idempotents
    number 3224 over sizes 1 to 3, the count of selftest's suite 10.
    factor_through_zero_diagonal raises exactly on the others, the
    matrix whose triangle clause alone fails among them, and on the
    idempotents reports what reference_factor does."""
    grid = (0, 1, 2, inf)
    # The matrix of the triangle-clause test below.
    triangle_only = ((0, 0, 0), (1, 1, 0), (inf, 1, 0))
    idempotent = []
    refused = []
    for n in range(4):
        labels = tuple("p%d" % i for i in range(n))
        count = 0
        for cells in itertools.product(grid, repeat=n * n):
            rows = tuple(cells[i * n:(i + 1) * n] for i in range(n))
            cols = tuple(zip(*rows))
            verdict = all(min(u + v for u, v in zip(row, col)) == x
                          for row in rows for col, x in zip(cols, row))
            m = IntMatrix(1, rows)
            assert equals_own_square(m) == verdict, rows
            try:
                report = factor_through_zero_diagonal(CostMatrix(labels, m))
            except ValueError:
                assert not verdict, rows
                if rows == triangle_only:
                    refused.append(rows)
            else:
                assert verdict, rows
                rho = [[None if x == inf else F(x) for x in row]
                       for row in rows]
                assert report == reference_factor(labels, rho), rows
                assert report.failures == ()
            count += verdict
        idempotent.append(count)
    assert idempotent == [1, 2, 41, 3181]
    assert refused == [triangle_only]
