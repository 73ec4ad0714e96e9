import random
from fractions import Fraction
from math import gcd, inf, lcm
from operator import gt, ne

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmet.corelations import BlockMetric
from finmet.extarith import INF, ExtValue, fin
from finmet.limits import coproduct
from finmet.maps import FinMap
from finmet.minplus import (IntMatrix, int_product, minplus_closure,
                            minplus_matmul, pointwise, scale)
from finmet.pushouts import _glue_and_close, pushout_along_embedding
from finmet.spaces import FinSpace


def rand_cost(rng, n, zero_diag=False):
    grid = [fin(0), fin(1, 2), fin(1), fin(2), fin(3), INF]
    return IntMatrix.of([
        [fin(0) if (zero_diag and i == j) else rng.choice(grid)
         for j in range(n)]
        for i in range(n)
    ])


def test_matmul_small_pinned():
    a = IntMatrix.of(((fin(1), INF), (fin(0), fin(2))))
    b = IntMatrix.of(((fin(3), fin(1)), (INF, fin(0))))
    # entry (0,0): min(1+3, inf+inf) = 4; (1,1): min(0+1, 2+0) = 1
    out = minplus_matmul(a, b)
    assert out == IntMatrix.of(((fin(4), fin(2)), (fin(3), fin(1))))


def test_closure_is_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        c = minplus_closure(rand_cost(rng, n, zero_diag=True))
        assert minplus_closure(IntMatrix.of([list(r) for r in c])) == c
        assert minplus_matmul(c, c) == c


def test_closure_below_input_and_triangle():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        cost = rand_cost(rng, n, zero_diag=True)
        c = minplus_closure(cost)
        for i in range(n):
            for j in range(n):
                assert c[i][j] <= cost[i][j]
                for k in range(n):
                    assert c[i][j] <= c[i][k] + c[k][j]


def test_closure_vs_path_enumeration():
    # brute-force oracle: min over all simple paths up to length n
    import itertools
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        cost = rand_cost(rng, n, zero_diag=True)
        c = minplus_closure(cost)
        for i in range(n):
            for j in range(n):
                best = cost[i][j]
                for k in range(1, n):
                    for mids in itertools.permutations(
                            [m for m in range(n) if m not in (i, j)], k):
                        seq = (i,) + mids + (j,)
                        w = fin(0)
                        for u, v in zip(seq, seq[1:]):
                            w = w + cost[u][v]
                        if w < best:
                            best = w
                assert c[i][j] == best, (i, j, cost)


def test_closure_disconnected_stays_inf():
    cost = IntMatrix.of([[fin(0), INF], [INF, fin(0)]])
    assert minplus_closure(cost) == IntMatrix.of(
        ((fin(0), INF), (INF, fin(0))))


# -- the integer kernel against the ExtValue loops it replaced -------------

# Two Mersenne primes: a common denominator of both exceeds 2**64.
BIG_DENOMINATORS = (2 ** 61 - 1, 2 ** 31 - 1)

values = st.one_of(
    st.just(INF),
    st.builds(fin, st.integers(0, 6) | st.integers(0, 2 ** 70),
              st.sampled_from((1, 2, 3, 7) + BIG_DENOMINATORS)))


def matrices(n_rows, n_cols):
    return st.lists(st.lists(values, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


square = st.integers(0, 5).flatmap(lambda n: matrices(n, n))
positive = st.one_of(
    st.just(INF),
    st.builds(fin, st.integers(1, 6) | st.integers(1, 2 ** 70),
              st.sampled_from((1, 2, 3, 7) + BIG_DENOMINATORS)))
# (rows, cols) operands of int_route_product, the inner dimension possibly 0.
operands = st.tuples(st.integers(0, 4), st.integers(0, 4),
                     st.integers(0, 4)).flatmap(
    lambda s: st.tuples(matrices(s[0], s[2]), matrices(s[1], s[2])))

TINY = fin(1, BIG_DENOMINATORS[0])
SMALL = fin(1, BIG_DENOMINATORS[1])


def int_route_product(rows, cols):
    """min_k rows[i][k] + cols[j][k] through scale and int_product, the
    second operand given by its columns so that an inner dimension of
    zero still fixes the output shape."""
    common, (rows, cols) = scale(IntMatrix.of(rows), IntMatrix.of(cols))
    return IntMatrix(common, int_product(rows, list(zip(*cols)), len(cols)))


def reference_product(rows, cols):
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            best = INF
            for u, v in zip(row, col):
                if u + v < best:
                    best = u + v
            out_row.append(best)
        out.append(tuple(out_row))
    return tuple(out)


def reference_closure(cost):
    n = len(cost)
    dist = [list(row) for row in cost]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik.is_inf:
                continue
            for j in range(n):
                cand = dik + dist[k][j]
                if cand < dist[i][j]:
                    dist[i][j] = cand
    return tuple(tuple(row) for row in dist)


def separated_metric(n):
    """A separated metric on n points: the closure of positive costs."""
    return st.lists(st.lists(positive, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: reference_closure(
                        [[fin(0) if i == j else v for j, v in enumerate(row)]
                         for i, row in enumerate(rows)]))


@settings(deadline=None)
@given(square)
@example([])
@example([[fin(2)]])
@example([[INF, INF], [INF, INF]])
@example([[fin(1), INF], [SMALL, TINY]])
@example([[fin(0), TINY, INF], [INF, fin(3), SMALL], [SMALL, INF, INF]])
# The diagonal closes as a cycle through all n points, n arcs of the
# largest finite value.
@example([[INF, fin(1), INF], [INF, INF, fin(1)], [fin(1), INF, INF]])
# A positive diagonal and a pivot row that is INF off it, or INF
# throughout; neither relaxes anything.
@example([[fin(1), fin(2), INF], [INF, TINY, INF], [SMALL, INF, fin(3)]])
@example([[fin(1), fin(2), INF], [INF, INF, INF], [SMALL, INF, fin(3)]])
# Pivot 0 makes d(1, 2) finite, and pivot 1 must then route d(3, 2)
# through it: row 1's finite entries are read when 1 is the pivot.
@example([[fin(0), INF, fin(1), INF], [fin(1), fin(0), INF, INF],
          [INF, INF, fin(0), INF], [INF, TINY, INF, fin(0)]])
def test_closure_matches_extvalue_loop(cost):
    assert minplus_closure(IntMatrix.of(cost)) == IntMatrix.of(
        reference_closure(cost))


@settings(deadline=None)
@given(operands)
@example(([[], []], [[], [], []]))
@example(([[INF, INF], [fin(1), TINY]], [[SMALL, fin(2)], [INF, INF]]))
# The second operand, given by its columns, has an all-INF row (index 1
# of every column) and an all-INF column (the last).
@example(([[fin(1), fin(0), TINY], [INF, fin(2), SMALL]],
          [[fin(0), INF, fin(3)], [TINY, INF, INF], [INF, INF, INF]]))
def test_product_matches_extvalue_loop(pair):
    rows, cols = pair
    out = int_route_product(rows, cols)
    assert out == IntMatrix.of(reference_product(rows, cols))
    assert len(out) == len(rows)
    assert all(len(row) == len(cols) for row in out)


# Two matrices of one shape, either dimension possibly 0.
same_shape = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(matrices(*s), matrices(*s)))


@settings(deadline=None)
@given(same_shape, st.sampled_from((gt, ne)))
@example(([], []), gt)
@example(([[INF, INF, fin(1)]], [[INF, fin(1), INF]]), gt)
@example(([[INF, INF, fin(1)]], [[INF, fin(1), INF]]), ne)
@example(([[TINY, SMALL], [fin(1, 3), INF]],
          [[SMALL, TINY], [fin(2, 6), fin(2 ** 70)]]), gt)
@example(([[TINY, SMALL], [fin(1, 3), INF]],
          [[SMALL, TINY], [fin(2, 6), fin(2 ** 70)]]), ne)
def test_pointwise_matches_extvalue_loop(pair, op):
    a, b = pair
    want = [(i, j) for i, row in enumerate(a) for j, u in enumerate(row)
            if op(u, b[i][j])]
    assert list(pointwise(IntMatrix.of(a), IntMatrix.of(b), op)) == want


@st.composite
def read_through(draw):
    """A square matrix a, an index map into it (repeats allowed, possibly
    empty) and a matrix b of the index map's size."""
    m = draw(st.integers(0, 4))
    idx = draw(st.lists(st.integers(0, m - 1), max_size=5)) if m else []
    return draw(matrices(m, m)), idx, draw(matrices(len(idx), len(idx)))


@settings(deadline=None)
@given(read_through(), st.sampled_from((gt, ne)))
@example(([[fin(0), fin(1, 3)], [INF, fin(2)]], [1, 1, 0],
          [[fin(2), fin(2), INF], [fin(2), fin(0), INF],
           [fin(1, 3), fin(1, 3), fin(0)]]), gt)
@example(([[fin(0)]], [], []), ne)
@example(([], [], []), gt)
def test_pointwise_through_idx_matches_the_pulled_matrix(case, op):
    a, idx, b = case
    a, b = IntMatrix.of(a), IntMatrix.of(b)
    want = list(pointwise(a.sub(idx, idx), b, op))
    assert list(pointwise(a, b, op, idx)) == want
    assert list(pointwise(a, b, op, tuple(idx))) == want


def benchmark_sized_cost(seed, n=24):
    """A seeded n-point cost matrix shaped like the benchmark's: zero
    diagonal, arcs from the second half back to the first INF, a quarter
    of the other arcs INF and the rest positive, with denominators
    cycling through 1, 2, 3, 4, 5 and 7."""
    rng = random.Random(seed)
    half = n // 2
    cells = [(i, j) for i in range(n) for j in range(n)
             if i != j and not i >= half > j]
    rng.shuffle(cells)
    n_inf = len(cells) // 4
    cost = [[fin(0) if i == j else INF for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(cells[n_inf:]):
        den = (1, 2, 3, 4, 5, 7)[k % 6]
        cost[i][j] = fin(rng.randint(1, 4 * den), den)
    return cost


def test_kernels_match_extvalue_loops_at_benchmark_size():
    cost = IntMatrix.of(benchmark_sized_cost(17))
    closed = minplus_closure(cost)
    assert closed == IntMatrix.of(reference_closure(cost))
    assert sum(v.is_inf for row in closed for v in row) >= 24 * 24 // 4
    assert minplus_matmul(cost, closed) == IntMatrix.of(reference_product(
        cost, list(zip(*closed))))
    assert minplus_matmul(closed, closed) == closed


def test_empty_inner_dimension_is_inf():
    assert int_route_product([[], []], [[]]) == IntMatrix.of(((INF,), (INF,)))


def test_large_common_denominator_is_exact():
    cost = IntMatrix.of([[fin(0), TINY], [SMALL, fin(0)]])
    assert minplus_matmul(cost, cost) == IntMatrix.of(
        ((fin(0), TINY), (SMALL, fin(0))))
    cycle = minplus_closure(IntMatrix.of([[TINY, TINY], [SMALL, INF]]))
    assert cycle[1][1] == TINY + SMALL
    assert cycle[1][1].frac.denominator > 2 ** 64


# Values whose ints lie beyond float range: numerators and denominators
# near 10**320.  The two grids have different denominators, so putting a
# matrix of each over one multiplies both by a factor near 10**320; a
# float inf met by such an int in +, * or // would overflow.
HUGE_A = (fin(3 ** 671, 2 ** 1063), fin(10 ** 320 + 1))
HUGE_B = (fin(7 ** 379, 5 ** 458), fin(1, 10 ** 320 + 3))


def huge_cost(rng, n, grid):
    """An n x n cost matrix over fin(0), INF and grid."""
    return [[rng.choice((fin(0), INF) + grid) for _ in range(n)]
            for _ in range(n)]


def test_kernels_are_exact_beyond_float_range():
    rng = random.Random(18)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = IntMatrix.of(huge_cost(rng, n, HUGE_A))
        b = IntMatrix.of(huge_cost(rng, n, HUGE_B))
        for cost in (a, b):
            assert minplus_closure(cost) == IntMatrix.of(
                reference_closure(cost))
        assert minplus_matmul(a, b) == IntMatrix.of(
            reference_product(a, list(zip(*b))))
        assert minplus_matmul(b, a) == IntMatrix.of(
            reference_product(b, list(zip(*a))))


# -- the closure through given pivots ---------------------------------------

@st.composite
def closed_with_arcs(draw):
    """(cost, pivots): a closed metric on up to 6 points, over values,
    fin(0), INF and entries beyond float range, with some entries between
    two pivots lowered to 0 or to a drawn value."""
    n = draw(st.integers(1, 6))
    entry = values | st.just(fin(0)) | st.sampled_from(HUGE_A + HUGE_B)
    cost = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    rows = [list(row) for row in reference_closure(
        [[fin(0) if i == j else v for j, v in enumerate(row)]
         for i, row in enumerate(cost)])]
    pivots = draw(st.lists(st.integers(0, n - 1), unique=True))
    if pivots:
        ends = st.sampled_from(pivots)
        for p, q, v in draw(st.lists(st.tuples(ends, ends, st.just(fin(0))
                                               | entry), max_size=6)):
            rows[p][q] = min(rows[p][q], v)
    return rows, pivots


@settings(deadline=None)
@given(closed_with_arcs())
# d(i, j) = |i - j| with arcs 0 -> 1 and 1 -> 2 at 0: (0, 3) routes
# through both arcs and then d(2, 3), and point 3 is no pivot.
@example(([[fin(0), fin(0), fin(2), fin(3)], [fin(1), fin(0), fin(0), fin(2)],
           [fin(2), fin(1), fin(0), fin(1)], [fin(3), fin(2), fin(1), fin(0)]],
          [0, 1, 2]))
@example(([[fin(0), HUGE_A[1], INF], [HUGE_A[1], fin(0), HUGE_B[0]],
           [INF, HUGE_B[0], fin(0)]], [1, 2]))
def test_closure_through_the_arcs_ends_is_the_full_closure(case):
    rows, pivots = case
    assert minplus_closure(IntMatrix.of(rows), pivots) == IntMatrix.of(
        reference_closure(rows))


def test_pivots_need_a_closed_matrix():
    """0 -> 1 -> 2 is not closed, and pivot 0 alone cannot route it:
    (0, 2) stays INF where the full closure gives 2."""
    cost = IntMatrix.of([[fin(0), fin(1), INF], [INF, fin(0), fin(1)],
                         [INF, INF, fin(0)]])
    assert minplus_closure(cost, (0,)) == cost
    assert minplus_closure(cost)[0][2] == fin(2)


# -- the IntMatrix protocol -------------------------------------------------

def test_int_matrix_protocol():
    a = IntMatrix.of(((fin(1, 2), INF), (fin(3, 2), fin(1, 2))))
    product = minplus_matmul(a, a)
    literal = ((fin(1), INF), (fin(2), fin(1)))
    # The fractional operands give an all-integer product, which is held
    # over the denominator 1, exactly as its integer literal is.
    assert (product.den, product.rows) == (1, ((1, inf), (2, 1)))
    assert product == IntMatrix.of(literal)
    assert hash(product) == hash(IntMatrix.of(literal))
    # An IntMatrix equals only an IntMatrix, never its literal.
    assert product != literal and literal != product
    assert product != IntMatrix.of(((fin(1), INF), (fin(2), fin(2))))
    assert product != 5 and product != [[1, 2]]
    assert len(product) == 2
    rows = list(product)
    assert all(isinstance(row, tuple) for row in rows)
    assert all(isinstance(v, ExtValue) for row in rows for v in row)
    assert rows == [(fin(1), INF), (fin(2), fin(1))]
    assert product[1][0] == fin(2) and product[0][1].is_inf
    with pytest.raises(AttributeError):
        product.den = 2


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


def test_int_matrix_rejects_non_values():
    with pytest.raises(TypeError):
        IntMatrix.of([[1, 2]])


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: matrices(n, 3)))
@example([[TINY, SMALL, INF]])
def test_int_matrix_round_trip_is_reduced(matrix):
    m = IntMatrix.of(matrix)
    assert tuple(m) == tuple(tuple(row) for row in matrix)
    assert gcd(m.den, *[x for row in m.rows for x in row if x != inf]) == 1
    assert IntMatrix(m.den * 6, [[inf if x == inf else 6 * x for x in row]
                                 for row in m.rows]) == m


# -- the reduced form and read-only rows ------------------------------------

def reference_reduced(den, rows):
    """(L, rows) of the entries x / den as Fractions: L the least common
    denominator of the finite ones, each finite entry times L."""
    fracs = [[None if x == inf else Fraction(x, den) for x in row]
             for row in rows]
    common = lcm(*[f.denominator for row in fracs for f in row
                   if f is not None])
    return common, tuple(tuple(inf if f is None else int(f * common)
                               for f in row) for row in fracs)


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
    and a matrix never equals its nested ExtValue form."""
    m = IntMatrix(*raw)
    again = IntMatrix.of(tuple(m))
    assert again == m and hash(again) == hash(m)
    assert m != tuple(m) and tuple(m) != m


def test_scale_shares_the_rows_it_does_not_rescale():
    m = IntMatrix.of([[fin(0), fin(1, 2)], [fin(1, 2), INF]])
    assert scale(m)[1][0] is m.rows
    half = IntMatrix.of([[fin(3, 2)]])
    whole = IntMatrix.of([[fin(5)]])
    common, (h, w) = scale(half, whole)
    assert common == 2 and h is half.rows
    assert w == ((10,),) and isinstance(w[0], tuple)


def test_kernels_and_constructions_leave_operands_unchanged():
    """Rows from scale are shared with their matrix, so a kernel that
    writes must copy them; every operand reads the same afterwards."""
    a = FinSpace(("s",), ((fin(0),),))
    x = FinSpace(("p", "x"), ((fin(0), fin(1, 2)), (fin(1, 2), fin(0))))
    b = FinSpace(("q", "b"), ((fin(0), fin(2)), (fin(2), fin(0))))
    i, f = FinMap(a, x, ("p",)), FinMap(a, b, ("q",))
    bx, _, _ = coproduct(b, x)
    cost = IntMatrix.of([[fin(0), INF, fin(3), INF],
                         [INF, fin(0), INF, fin(1)],
                         [fin(1, 3), INF, fin(0), INF],
                         [INF, INF, INF, fin(0)]])
    blocks = (x.dist, IntMatrix.of([[fin(1), fin(1)], [fin(1), fin(1)]]),
              IntMatrix.of([[fin(1, 3), INF], [INF, fin(1, 3)]]), x.dist)
    operands = (a.dist, x.dist, b.dist, bx.dist) + blocks
    before = [(m.den, m.rows) for m in operands]
    cost_before = IntMatrix.of([list(row) for row in cost])

    minplus_closure(x.dist)
    minplus_closure(bx.dist)
    minplus_closure(cost)
    _glue_and_close(i, f, bx.dist)
    minplus_closure(cost, (0, 2))
    coproduct(x, b)
    pushout_along_embedding(i, f)
    BlockMetric(x, *blocks).as_matrix()

    assert [(m.den, m.rows) for m in operands] == before
    assert cost == cost_before
