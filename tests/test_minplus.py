import itertools
import os
import random
import sys
from fractions import Fraction as F
from math import gcd, inf, lcm
from operator import gt, ne

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.corelations import BlockMetric
from finmet.extarith import ExtValue, parse
from finmet.limits import coproduct
from finmet.maps import FinMap
from finmet.minplus import (IntMatrix, int_product, minplus_closure,
                            minplus_matmul, pointwise, scale)
from finmet.pushouts import glue, pushout_along_embedding
from finmet.spaces import FinSpace
from reference import (HUGE_A, HUGE_B, SMALL, TINY, add, benchmark_sized_cost,
                       closure, fracs, huge_cost, le, least, matrices,
                       matrix, product, square, tokens, values)


def rand_cost(rng, n, zero_diag=False):
    grid = [F(0), F(1, 2), F(1), F(2), F(3), None]
    return [[F(0) if (zero_diag and i == j) else rng.choice(grid)
             for j in range(n)]
            for i in range(n)]


def test_matmul_small_pinned():
    a = matrix(((F(1), None), (F(0), F(2))))
    b = matrix(((F(3), F(1)), (None, F(0))))
    # entry (0,0): min(1+3, inf+inf) = 4; (1,1): min(0+1, 2+0) = 1
    out = minplus_matmul(a, b)
    assert out == matrix(((F(4), F(2)), (F(3), F(1))))


def test_closure_is_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        c = minplus_closure(matrix(rand_cost(rng, n, zero_diag=True)))
        assert minplus_closure(matrix(fracs(c))) == c
        assert minplus_matmul(c, c) == c


def test_closure_below_input_and_triangle():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        cost = rand_cost(rng, n, zero_diag=True)
        c = fracs(minplus_closure(matrix(cost)))
        for i in range(n):
            for j in range(n):
                assert le(c[i][j], cost[i][j])
                for k in range(n):
                    assert le(c[i][j], add(c[i][k], c[k][j]))


def test_closure_vs_path_enumeration():
    # brute-force oracle: min over all simple paths up to length n
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        cost = rand_cost(rng, n, zero_diag=True)
        c = fracs(minplus_closure(matrix(cost)))
        for i in range(n):
            for j in range(n):
                best = cost[i][j]
                for k in range(1, n):
                    for mids in itertools.permutations(
                            [m for m in range(n) if m not in (i, j)], k):
                        seq = (i,) + mids + (j,)
                        w = F(0)
                        for u, v in zip(seq, seq[1:]):
                            w = add(w, cost[u][v])
                        if not le(best, w):
                            best = w
                assert c[i][j] == best, (i, j, cost)


def test_closure_disconnected_stays_inf():
    cost = matrix([[F(0), None], [None, F(0)]])
    assert minplus_closure(cost) == matrix(
        ((F(0), None), (None, F(0))))


# -- the integer kernels against the Fraction reference loops ---------------

# (rows, cols) operands of int_route_product, the inner dimension possibly 0.
operands = st.tuples(st.integers(0, 4), st.integers(0, 4),
                     st.integers(0, 4)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[2]), matrices(s[1], s[2])))



def int_route_product(rows, cols):
    """min_k rows[i][k] + cols[j][k] through scale and int_product, the
    second operand given by its columns so that an inner dimension of
    zero still fixes the output shape."""
    common, (rows, cols) = scale(matrix(rows), matrix(cols))
    return IntMatrix(common, int_product(rows, list(zip(*cols)), len(cols)))


@settings(deadline=None)
@given(square)
@example([])
@example([[F(2)]])
@example([[None, None], [None, None]])
@example([[F(1), None], [SMALL, TINY]])
@example([[F(0), TINY, None], [None, F(3), SMALL], [SMALL, None, None]])
# The diagonal closes as a cycle through all n points, n arcs of the
# largest finite value.
@example([[None, F(1), None], [None, None, F(1)], [F(1), None, None]])
# A positive diagonal and a pivot row that is INF off it, or INF
# throughout; neither relaxes anything.
@example([[F(1), F(2), None], [None, TINY, None], [SMALL, None, F(3)]])
@example([[F(1), F(2), None], [None, None, None], [SMALL, None, F(3)]])
# Pivot 0 makes d(1, 2) finite, and pivot 1 must then route d(3, 2)
# through it: row 1's finite entries are read when 1 is the pivot.
@example([[F(0), None, F(1), None], [F(1), F(0), None, None],
          [None, None, F(0), None], [None, TINY, None, F(0)]])
def test_closure_matches_reference(cost):
    assert minplus_closure(matrix(cost)) == matrix(closure(cost))


@settings(deadline=None)
@given(operands)
@example(([[], []], [[], [], []]))
@example(([[None, None], [F(1), TINY]], [[SMALL, F(2)], [None, None]]))
# The second operand, given by its columns, has an all-INF row (index 1
# of every column) and an all-INF column (the last).
@example(([[F(1), F(0), TINY], [None, F(2), SMALL]],
          [[F(0), None, F(3)], [TINY, None, None], [None, None, None]]))
def test_product_matches_reference(pair):
    rows, cols = pair
    out = int_route_product(rows, cols)
    assert out == matrix(product(rows, cols))
    assert len(out) == len(rows)
    assert all(len(row) == len(cols) for row in out)


# Each order test on the Fraction reference values.
REFERENCE_OP = {gt: lambda u, v: not le(u, v), ne: ne}
# Two matrices of one shape, either dimension possibly 0.
same_shape = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(matrices(*s), matrices(*s)))


@settings(deadline=None)
@given(same_shape, st.sampled_from((gt, ne)))
@example(([], []), gt)
@example(([[None, None, F(1)]], [[None, F(1), None]]), gt)
@example(([[None, None, F(1)]], [[None, F(1), None]]), ne)
@example(([[TINY, SMALL], [F(1, 3), None]],
          [[SMALL, TINY], [F(2, 6), F(2 ** 70)]]), gt)
@example(([[TINY, SMALL], [F(1, 3), None]],
          [[SMALL, TINY], [F(2, 6), F(2 ** 70)]]), ne)
def test_pointwise_matches_reference(pair, op):
    a, b = pair
    want = [(i, j) for i, row in enumerate(a) for j, u in enumerate(row)
            if REFERENCE_OP[op](u, b[i][j])]
    assert list(pointwise(matrix(a), matrix(b), op)) == want


@st.composite
def read_through(draw):
    """A square matrix a, an index map into it (repeats allowed, possibly
    empty) and a matrix b of the index map's size."""
    m = draw(st.integers(0, 4))
    idx = draw(st.lists(st.integers(0, m - 1), max_size=5)) if m else []
    return draw(matrices(m, m)), idx, draw(matrices(len(idx), len(idx)))


@settings(deadline=None)
@given(read_through(), st.sampled_from((gt, ne)))
@example(([[F(0), F(1, 3)], [None, F(2)]], [1, 1, 0],
          [[F(2), F(2), None], [F(2), F(0), None],
           [F(1, 3), F(1, 3), F(0)]]), gt)
@example(([[F(0)]], [], []), ne)
@example(([], [], []), gt)
def test_pointwise_through_idx_matches_the_pulled_matrix(case, op):
    a, idx, b = case
    a, b = matrix(a), matrix(b)
    want = list(pointwise(a.sub(idx, idx), b, op))
    assert list(pointwise(a, b, op, idx)) == want
    assert list(pointwise(a, b, op, tuple(idx))) == want


def test_kernels_match_reference_at_benchmark_size():
    cost = benchmark_sized_cost(17)
    closed = minplus_closure(matrix(cost))
    assert closed == matrix(closure(cost))
    assert sum(x == inf for row in closed.rows for x in row) >= 24 * 24 // 4
    assert minplus_matmul(matrix(cost), closed) == matrix(product(
        cost, list(zip(*fracs(closed)))))
    assert minplus_matmul(closed, closed) == closed


def test_empty_inner_dimension_is_inf():
    assert int_route_product([[], []], [[]]) == IntMatrix(1, [[inf], [inf]])


def test_large_common_denominator_is_exact():
    cost = matrix([[F(0), TINY], [SMALL, F(0)]])
    assert minplus_matmul(cost, cost) == cost
    cycle = fracs(minplus_closure(matrix([[TINY, TINY], [SMALL, None]])))
    assert cycle[1][1] == TINY + SMALL
    assert cycle[1][1].denominator > 2 ** 64


def test_kernels_are_exact_beyond_float_range():
    rng = random.Random(18)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = huge_cost(rng, n, HUGE_A)
        b = huge_cost(rng, n, HUGE_B)
        for cost in (a, b):
            assert minplus_closure(matrix(cost)) == matrix(closure(cost))
        assert minplus_matmul(matrix(a), matrix(b)) == matrix(
            product(a, list(zip(*b))))
        assert minplus_matmul(matrix(b), matrix(a)) == matrix(
            product(b, list(zip(*a))))


# -- the closure through given pivots ---------------------------------------

@st.composite
def closed_with_arcs(draw):
    """(cost, pivots): a closed metric on up to 6 points, over values,
    0, INF and entries beyond float range, with some entries between
    two pivots lowered to 0 or to a drawn value."""
    n = draw(st.integers(1, 6))
    entry = values | st.just(F(0)) | st.sampled_from(HUGE_A + HUGE_B)
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    rows = closure([[F(0) if i == j else v for j, v in enumerate(row)]
                    for i, row in enumerate(cost)])
    pivots = draw(st.lists(st.integers(0, n - 1), unique=True))
    if pivots:
        ends = st.sampled_from(pivots)
        for p, q, v in draw(st.lists(st.tuples(ends, ends, st.just(F(0))
                                               | entry), max_size=6)):
            rows[p][q] = least(rows[p][q], v)
    return rows, pivots


@settings(deadline=None)
@given(closed_with_arcs())
# d(i, j) = |i - j| with arcs 0 -> 1 and 1 -> 2 at 0: (0, 3) routes
# through both arcs and then d(2, 3), and point 3 is no pivot.
@example(([[F(0), F(0), F(2), F(3)], [F(1), F(0), F(0), F(2)],
           [F(2), F(1), F(0), F(1)], [F(3), F(2), F(1), F(0)]],
          [0, 1, 2]))
@example(([[F(0), HUGE_A[1], None], [HUGE_A[1], F(0), HUGE_B[0]],
           [None, HUGE_B[0], F(0)]], [1, 2]))
def test_closure_through_the_arcs_ends_is_the_full_closure(case):
    rows, pivots = case
    assert minplus_closure(matrix(rows), pivots) == matrix(closure(rows))


def test_pivots_need_a_closed_matrix():
    """0 -> 1 -> 2 is not closed, and pivot 0 alone cannot route it:
    (0, 2) stays INF where the full closure gives 2."""
    cost = matrix([[F(0), F(1), None], [None, F(0), F(1)],
                   [None, None, F(0)]])
    assert minplus_closure(cost, (0,)) == cost
    assert fracs(minplus_closure(cost))[0][2] == F(2)


# -- the IntMatrix protocol -------------------------------------------------

def test_int_matrix_protocol():
    a = matrix(((F(1, 2), None), (F(3, 2), F(1, 2))))
    square = minplus_matmul(a, a)
    literal = ((F(1), None), (F(2), F(1)))
    view = tuple(tuple(map(parse, row)) for row in tokens(literal))
    # The fractional operands give an all-integer product, which is held
    # over the denominator 1, exactly as its integer literal is.
    assert (square.den, square.rows) == (1, ((1, inf), (2, 1)))
    assert square == matrix(literal)
    assert hash(square) == hash(matrix(literal))
    # An IntMatrix equals only an IntMatrix, never its literal or view.
    assert square != literal and literal != square
    assert square != view and view != square
    assert square != matrix(((F(1), None), (F(2), F(2))))
    assert square != 5 and square != [[1, 2]]
    assert len(square) == 2
    rows = list(square)
    assert all(isinstance(row, tuple) for row in rows)
    assert all(isinstance(v, ExtValue) for row in rows for v in row)
    assert rows == list(view)
    assert rows[1][0].frac == 2 and rows[0][1].is_inf
    with pytest.raises(AttributeError):
        square.den = 2


def test_int_matrix_token_reads_the_ints():
    m = IntMatrix(6, [(3, inf), (0, 12)])
    assert (m.den, m.rows) == (2, ((1, inf), (0, 4)))
    assert [[m.token(i, j) for j in range(2)] for i in range(2)] == [
        ["1/2", "inf"], ["0", "2"]]
    assert IntMatrix(6, [(3, 6)]).token(0, 0) == "1/2"


def test_int_matrix_fields_are_den_and_rows():
    """No cached view rides along: the slots are the two fields."""
    assert IntMatrix.__slots__ == ("den", "rows")
    assert IntMatrix._fields == ("den", "rows")


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, 3)))
@example([[TINY, SMALL, None]])
def test_int_matrix_round_trip_is_reduced(rows):
    m = matrix(rows)
    assert fracs(m) == rows
    assert m.tokens() == tokens(rows)
    assert gcd(m.den, *[x for row in m.rows for x in row if x != inf]) == 1
    assert IntMatrix(m.den * 6, [[inf if x == inf else 6 * x for x in row]
                                 for row in m.rows]) == m


# -- the reduced form and read-only rows ------------------------------------

def reference_reduced(den, rows):
    """(L, rows) of the entries x / den as Fractions: L the least common
    denominator of the finite ones, each finite entry times L."""
    entries = [[None if x == inf else F(x, den) for x in row]
               for row in rows]
    common = lcm(*[f.denominator for row in entries for f in row
                   if f is not None])
    return common, tuple(tuple(inf if f is None else int(f * common)
                               for f in row) for row in entries)


raw_entries = st.one_of(st.just(inf), st.integers(0, 60),
                        st.integers(10 ** 320 - 10 ** 6, 10 ** 320 + 10 ** 6))


@st.composite
def raw_int_matrices(draw):
    """(den, rows) with every row but the last times a shared factor k,
    so the gcd of den and the entries often stays above 1 until the
    last row."""
    n_rows, n_cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(raw_entries, min_size=n_cols,
                                  max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    k = draw(st.sampled_from((1, 2, 6, 10 ** 300)))
    den = k * draw(st.integers(1, 12) | st.just(10 ** 320))
    rows = [[x if x == inf else k * x for x in row]
            for row in rows[:-1]] + rows[-1:]
    return den, rows


@settings(deadline=None)
@given(raw_int_matrices())
# The gcd stays 6 through the first two rows and drops to 3 at the last.
@example((12, [[6, 24], [18, inf], [9, 3]]))
# It stays 6 until the last row, where it reaches 1.
@example((12, [[6, 24], [18, inf], [5, 6]]))
@example((4, [[inf, inf], [inf, inf]]))
@example((4, [[inf, inf], [2, inf]]))
@example((7, []))
@example((7, [[], []]))
@example((10 ** 320, [[10 ** 320 + 10 ** 300, inf], [5 * 10 ** 319, 0]]))
def test_int_matrix_reduces_like_fractions(raw):
    den, rows = raw
    m = IntMatrix(den, rows)
    assert (m.den, m.rows) == reference_reduced(den, rows)
    again = IntMatrix(3 * den, [[x if x == inf else 3 * x for x in row]
                                for row in rows])
    assert again == m and hash(again) == hash(m)


@settings(deadline=None)
@given(raw_int_matrices())
@example((12, [[6, 24], [18, inf], [9, 3]]))
@example((7, []))
def test_int_matrix_equals_only_int_matrices(raw):
    """The Frozen contract with no exception: equal matrices hash alike,
    and a matrix never equals its nested ExtValue view."""
    m = IntMatrix(*raw)
    again = matrix(fracs(m))
    assert again == m and hash(again) == hash(m)
    assert m != tuple(m) and tuple(m) != m


def test_scale_shares_the_rows_it_does_not_rescale():
    m = matrix([[F(0), F(1, 2)], [F(1, 2), None]])
    assert scale(m)[1][0] is m.rows
    half = matrix([[F(3, 2)]])
    whole = matrix([[F(5)]])
    common, (h, w) = scale(half, whole)
    assert common == 2 and h is half.rows
    assert w == ((10,),) and isinstance(w[0], tuple)


def test_kernels_and_constructions_leave_operands_unchanged():
    """Rows from scale are shared with their matrix, so a kernel that
    writes must copy them; every operand reads the same afterwards."""
    a = FinSpace(("s",), IntMatrix(1, [[0]]))
    x = FinSpace(("p", "x"), IntMatrix(2, [[0, 1], [1, 0]]))
    b = FinSpace(("q", "b"), IntMatrix(1, [[0, 2], [2, 0]]))
    i, f = FinMap(a, x, ("p",)), FinMap(a, b, ("q",))
    bx, _, _ = coproduct(b, x)
    cost = IntMatrix(3, [[0, inf, 9, inf], [inf, 0, inf, 3],
                         [1, inf, 0, inf], [inf, inf, inf, 0]])
    blocks = (x.dist, IntMatrix(1, [[1, 1], [1, 1]]),
              IntMatrix(3, [[1, inf], [inf, 1]]), x.dist)
    operands = (a.dist, x.dist, b.dist, bx.dist) + blocks
    before = [(m.den, m.rows) for m in operands]
    cost_before = IntMatrix(cost.den, cost.rows)

    minplus_closure(x.dist)
    minplus_closure(bx.dist)
    minplus_closure(cost)
    glue(bx, [(0, 2)])
    minplus_closure(cost, (0, 2))
    coproduct(x, b)
    pushout_along_embedding(i, f)
    BlockMetric(x, *blocks).as_matrix()

    assert [(m.den, m.rows) for m in operands] == before
    assert cost == cost_before
