"""Exact reference arithmetic for the tests, written apart from finmet,
and the fixtures and Hypothesis strategies built on it.

A value of [0, inf] is a Fraction or an int, with None for infinity:
add, least and le are the (min, +) semiring and its order on them, and
closure and product the loops the kernels are checked against.  A
finmet matrix is built from such rows through their canonical tokens
(matrix, which calls IntMatrix.from_tokens) and read back to them with
fracs, or one entry by its point labels with at.  The strategies and
constants at the end draw such values, matrices and maps for the
property tests of every module.
"""

import random
from fractions import Fraction as F
from math import inf

from hypothesis import strategies as st

from finmet.minplus import IntMatrix
from finmet.spaces import FinMap, FinSpace, Violation


def add(u, v):
    return None if u is None or v is None else u + v


def least(u, v):
    return v if u is None else u if v is None else min(u, v)


def le(u, v):
    """u <= v, with None above every finite value."""
    return v is None or (u is not None and u <= v)


def token(v):
    """The canonical token of a Fraction, or "inf" for None."""
    return "inf" if v is None else str(v)


def tokens(m):
    return [[token(v) for v in row] for row in m]


def matrix(rows):
    """The IntMatrix of rows of values, read through their tokens."""
    return IntMatrix.from_tokens(tokens(rows))


def fracs(m):
    """The entries of an IntMatrix as Fractions, None for INF."""
    return [[None if x == inf else F(x, m.den) for x in row]
            for row in m.rows]


def at(record, x, y):
    """The entry at labels (x, y) of a FinSpace's distances or of a
    Submetric's matrix, as a Fraction, None for INF."""
    labels, m = ((record.labels, record.dist) if isinstance(record, FinSpace)
                 else (record.base.labels, record.gamma))
    return fracs(m)[labels.index(x)][labels.index(y)]


def closure(cost, pivots=None):
    """The least matrix below a square cost matrix that satisfies the
    triangle inequality, by relaxing every entry through each point in
    turn; with pivots, through those points only, in their order."""
    dist = [list(row) for row in cost]
    n = len(dist)
    for k in range(n) if pivots is None else pivots:
        for i in range(n):
            for j in range(n):
                dist[i][j] = least(dist[i][j], add(dist[i][k], dist[k][j]))
    return dist


def product(rows, cols):
    """out[i][j] = min_k rows[i][k] + cols[j][k], as a tuple of tuples:
    the second operand is given by its columns, so an inner dimension of
    0 still fixes the output shape."""
    out = []
    for row in rows:
        out_row = []
        for col in cols:
            best = None
            for u, v in zip(row, col):
                best = least(best, add(u, v))
            out_row.append(best)
        out.append(tuple(out_row))
    return tuple(out)


def two_point(v=1):
    return FinSpace(("a", "b"), matrix([[0, v], [v, 0]]))


def three_chain():
    return FinSpace(("u", "v", "w"),
                    matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))


def reference_violations(labels, dist):
    """Every metric-axiom violation of a labelled matrix of values, by
    checking each triple."""
    out = []
    n = len(labels)
    for i in range(n):
        if dist[i][i] != 0:
            out.append(Violation("nonzero-diagonal", (labels[i],),
                                 "d(x,x) = %s" % token(dist[i][i])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not le(dist[i][k], add(dist[i][j], dist[j][k])):
                    out.append(Violation(
                        "triangle", (labels[i], labels[j], labels[k]),
                        "%s > %s + %s" % (token(dist[i][k]), token(dist[i][j]),
                                          token(dist[j][k]))))
    return out


# -- strategies and constants shared by the property tests ------------------

# Two Mersenne primes: a common denominator of both exceeds 2**64.
BIG_DENOMINATORS = (2 ** 61 - 1, 2 ** 31 - 1)

values = st.one_of(
    st.just(None),
    st.builds(F, st.integers(0, 6) | st.integers(0, 2 ** 70),
              st.sampled_from((1, 2, 3, 7) + BIG_DENOMINATORS)))


def matrices(n_rows, n_cols):
    return st.lists(st.lists(values, min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows)


square = st.integers(0, 5).flatmap(lambda n: matrices(n, n))
positive = st.one_of(
    st.just(None),
    st.builds(F, st.integers(1, 6) | st.integers(1, 2 ** 70),
              st.sampled_from((1, 2, 3, 7) + BIG_DENOMINATORS)))

TINY = F(1, BIG_DENOMINATORS[0])
SMALL = F(1, BIG_DENOMINATORS[1])


def separated_metric(n):
    """A separated metric on n points: the closure of positive costs."""
    return st.lists(st.lists(positive, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: closure(
                        [[F(0) if i == j else v for j, v in enumerate(row)]
                         for i, row in enumerate(rows)]))


@st.composite
def maps(draw):
    """A map between labelled matrices; half the time its source is the
    target restricted along an injection, so embeddings occur."""
    m = draw(st.integers(1, 5))
    tgt_dist = draw(matrices(m, m))
    tgt = FinSpace(tuple("t%d" % k for k in range(m)), matrix(tgt_dist))
    if draw(st.booleans()):
        idx = draw(st.permutations(range(m)))[:draw(st.integers(0, m))]
        dist = [[tgt_dist[i][j] for j in idx] for i in idx]
    else:
        n = draw(st.integers(0, 4))
        idx = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        dist = draw(matrices(n, n))
    src = FinSpace(tuple("s%d" % k for k in range(len(idx))), matrix(dist))
    return FinMap(src, tgt, tuple(tgt.labels[k] for k in idx))


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
    cost = [[F(0) if i == j else None for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(cells[n_inf:]):
        den = (1, 2, 3, 4, 5, 7)[k % 6]
        cost[i][j] = F(rng.randint(1, 4 * den), den)
    return cost


# Values whose ints lie beyond float range: numerators and denominators
# near 10**320.  The two grids have different denominators, so putting a
# matrix of each over one multiplies both by a factor near 10**320; a
# float inf met by such an int in +, * or // would overflow.
HUGE_A = (F(3 ** 671, 2 ** 1063), F(10 ** 320 + 1))
HUGE_B = (F(7 ** 379, 5 ** 458), F(1, 10 ** 320 + 3))


def huge_cost(rng, n, grid):
    """An n x n cost matrix over 0, INF and grid."""
    return [[rng.choice((F(0), None) + grid) for _ in range(n)]
            for _ in range(n)]
