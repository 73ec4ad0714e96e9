import os
import random
import sys
from fractions import Fraction as F
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.harness import GenConfig, gen_metric
from finmet.minplus import IntMatrix
from finmet.spaces import (FinSpace, is_separated, metric_violations,
                           quotient_by_zero_classes, sep_reflection,
                           validate_metric, zero_classes)
from reference import (HUGE_A, HUGE_B, SMALL, TINY, at, benchmark_sized_cost,
                       closure, huge_cost, matrix, positive,
                       reference_violations, square, two_point, values)


def test_constructor_shape_checks():
    with pytest.raises(ValueError):
        FinSpace(("a", "a"), IntMatrix(1, [[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        FinSpace(("a", "b"), IntMatrix(1, [[0]]))


def test_valid_metric_no_violations():
    assert validate_metric(two_point()) == []
    assert not validate_metric(two_point(None))


def test_diagonal_violation_reported():
    sp = FinSpace(("a",), IntMatrix(1, [[1]]))
    bad = validate_metric(sp)
    assert [v.kind for v in bad] == ["nonzero-diagonal"]
    assert bad[0].points == ("a",)


def test_triangle_violation_reported():
    sp = FinSpace(("a", "b", "c"), IntMatrix(1, [[0, 1, 5],
                                                 [1, 0, 1],
                                                 [5, 1, 0]]))
    kinds = {v.kind for v in validate_metric(sp)}
    assert kinds == {"triangle"}
    witnesses = {v.points for v in validate_metric(sp)}
    assert ("a", "b", "c") in witnesses


def test_asymmetric_distances_allowed():
    sp = FinSpace(("a", "b"), IntMatrix(1, [[0, 1], [2, 0]]))
    assert validate_metric(sp) == []
    assert is_separated(sp)


def test_separation():
    assert is_separated(two_point())
    glued = FinSpace(("a", "b"), IntMatrix(1, [[0, 0], [0, 0]]))
    assert not is_separated(glued)
    # one-sided zero does not break separation
    oneway = FinSpace(("a", "b"), IntMatrix(1, [[0, 0], [1, 0]]))
    assert is_separated(oneway)


def test_sep_reflection_collapses_zero_pairs():
    sp = FinSpace(("a", "b", "c"), IntMatrix(1, [[0, 0, 1],
                                                 [0, 0, 1],
                                                 [1, 1, 0]]))
    q, proj = sep_reflection(sp)
    assert q.labels == ("[a]", "[c]")
    assert proj.assignment == ("[a]", "[a]", "[c]")
    assert at(q, "[a]", "[c]") == 1
    assert is_separated(q)


def test_sep_reflection_identity_on_separated():
    rng = random.Random(3)
    for t in range(100):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=5))
        q, proj = sep_reflection(sp)
        assert q.n == sp.n
        assert q.dist == sp.dist


def test_zero_classes_first_occurrence_order():
    mat = IntMatrix(1, [[0, inf, 0], [inf, 0, inf], [0, inf, 0]])
    classes, assigned = zero_classes(("x", "y", "z"), mat)
    assert classes == [(0, 2), (1,)]
    assert assigned == [0, 1, 0]


def test_metric_violations_on_raw_matrix():
    bad = metric_violations(("p", "q"),
                            IntMatrix(1, [[0, 0], [1, 2]]))
    assert any(v.kind == "nonzero-diagonal" and v.points == ("q",) for v in bad)


@settings(deadline=None)
@given(square, st.booleans())
@example([], False)
@example([[F(1)]], False)
@example([[None, None], [None, None]], False)
@example([[F(0), TINY, F(1)], [None, F(0), SMALL], [None, None, F(0)]],
          False)
# d(0, 2) is INF while d(0, 1) + d(1, 2) is finite.
@example([[F(0), TINY, None], [None, F(0), SMALL], [None, None, F(0)]],
          False)
def test_violations_match_reference(dist, closed):
    if closed:
        dist = closure(dist)
    labels = tuple("p%d" % i for i in range(len(dist)))
    want = reference_violations(labels, dist)
    assert metric_violations(labels, matrix(dist)) == want


def test_violations_match_reference_at_benchmark_size():
    cost = benchmark_sized_cost(17)
    labels = tuple("p%d" % i for i in range(len(cost)))
    raw = metric_violations(labels, matrix(cost))
    assert raw and raw == reference_violations(labels, cost)
    closed = closure(cost)
    assert metric_violations(labels, matrix(closed)) == []
    assert reference_violations(labels, closed) == []


def test_violations_match_reference_beyond_float_range():
    rng = random.Random(18)
    for _ in range(25):
        n = rng.randint(1, 4)
        cost = huge_cost(rng, n, HUGE_A + HUGE_B)
        labels = tuple("p%d" % i for i in range(n))
        for dist in (cost, closure(cost)):
            want = reference_violations(labels, dist)
            assert metric_violations(labels, matrix(dist)) == want


@st.composite
def off_zero_diagonal(draw):
    """A square matrix on up to 6 points whose diagonal is positive or
    INF, so the triangle's terms through d(i, i) and d(j, j) are live."""
    n = draw(st.integers(1, 6))
    dist = draw(st.lists(st.lists(st.just(F(0)) | values, min_size=n,
                                  max_size=n), min_size=n, max_size=n))
    for i, v in enumerate(draw(st.lists(positive, min_size=n, max_size=n))):
        dist[i][i] = v
    return dist


@settings(deadline=None)
@given(off_zero_diagonal())
# d(0, 0) > d(0, 1) + d(1, 0): the triangle (p0, p1, p0), with k = i.
@example([[F(3), F(1)], [F(1), F(0)]])
@example([[TINY, None, F(0)], [F(0), SMALL, None], [F(1), F(0), None]])
def test_violations_off_a_zero_diagonal_match_reference(dist):
    labels = tuple("p%d" % i for i in range(len(dist)))
    assert metric_violations(labels, matrix(dist)) == reference_violations(
        labels, dist)


def test_violations_off_a_zero_diagonal_at_benchmark_size():
    rng = random.Random(33)
    cost = benchmark_sized_cost(33)
    for i, row in enumerate(cost):
        row[i] = rng.choice((F(0), F(1, 3), F(5), None))
    labels = tuple("p%d" % i for i in range(len(cost)))
    for dist in (cost, closure(cost)):
        want = reference_violations(labels, dist)
        assert want and metric_violations(labels, matrix(dist)) == want


# -- zero classes on ints against the reference loops -----------------------

def reference_zero_classes(n, mat):
    assigned = [None] * n
    classes = []
    for i in range(n):
        if assigned[i] is not None:
            continue
        members = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, n):
            if (assigned[j] is None and mat[i][j] == F(0)
                    and mat[j][i] == F(0)):
                members.append(j)
                assigned[j] = len(classes)
        classes.append(tuple(members))
    return classes, assigned


def reference_is_separated(n, mat):
    return not any(i != j and mat[i][j] == F(0) and mat[j][i] == F(0)
                   for i in range(n) for j in range(n))


# Zeros are common, so zero classes of several points show up.
zero_heavy = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.just(F(0)) | values, min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(deadline=None)
@given(zero_heavy)
@example([[F(0), TINY, F(0)], [None, F(0), F(0)],
          [F(0), F(0), SMALL]])
def test_zero_classes_match_reference(mat):
    n = len(mat)
    labels = tuple("p%d" % i for i in range(n))
    classes, assigned = reference_zero_classes(n, mat)
    assert zero_classes(labels, matrix(mat)) == (classes, assigned)
    space = FinSpace(labels, matrix(mat))
    assert is_separated(space) == reference_is_separated(n, mat)
    proj = quotient_by_zero_classes(space, matrix(mat))
    assert proj.target.dist == matrix(
        tuple(tuple(mat[ci[0]][cj[0]] for cj in classes) for ci in classes))
    assert proj.assignment == tuple(proj.target.labels[c] for c in assigned)


# -- separation and zero classes against all pairs ---------------------------

@st.composite
def zero_arcs(draw):
    """A square matrix of positive values with zero arcs put in, some one
    way and some both ways, the diagonal included; most are not
    metrics."""
    n = draw(st.integers(0, 6))
    mat = draw(st.lists(st.lists(positive, min_size=n, max_size=n),
                        min_size=n, max_size=n))
    if n:
        point = st.integers(0, n - 1)
        for i, j, both in draw(st.lists(st.tuples(point, point,
                                                  st.booleans()))):
            mat[i][j] = F(0)
            if both:
                mat[j][i] = F(0)
    return mat


def brute_zero_pairs(mat):
    """Every ordered pair of distinct points at 0 both ways."""
    n = len(mat)
    return {(i, j) for i in range(n) for j in range(n)
            if i != j and mat[i][j] == F(0) and mat[j][i] == F(0)}


@settings(deadline=None)
@given(zero_arcs())
@example([[F(1), F(0), None], [F(2), F(0), F(0)],
          [F(1), F(0), F(3)]])
@example([[F(0), F(0), F(1)], [F(0), F(0), F(0)],
          [F(1), F(0), F(0)]])
def test_separation_and_zero_classes_match_all_pairs(mat):
    n = len(mat)
    labels = tuple("p%d" % i for i in range(n))
    pairs = brute_zero_pairs(mat)
    assert is_separated(FinSpace(labels, matrix(mat))) == (not pairs)
    # Each class is the first unassigned point and every later unassigned
    # point at 0 both ways from it.
    classes, assigned = [], [None] * n
    for i in range(n):
        if assigned[i] is None:
            members = (i,) + tuple(j for j in range(i + 1, n)
                                   if assigned[j] is None and (i, j) in pairs)
            for j in members:
                assigned[j] = len(classes)
            classes.append(members)
    assert zero_classes(labels, matrix(mat)) == (classes, assigned)
