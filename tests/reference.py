"""Exact reference arithmetic for the tests, written apart from finmet,
and the fixtures built on it.

A value of [0, inf] is a Fraction or an int, with None for infinity:
add, least and le are the (min, +) semiring and its order on them, and
closure and product the loops the kernels are checked against.  A
finmet matrix is built from such rows through their canonical tokens
(matrix, which calls IntMatrix.from_tokens) and read back to them with
fracs.
"""

from fractions import Fraction
from math import inf

from finmet.minplus import IntMatrix
from finmet.spaces import FinSpace


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
    return [[None if x == inf else Fraction(x, m.den) for x in row]
            for row in m.rows]


def closure(cost):
    """The least matrix below a square cost matrix that satisfies the
    triangle inequality, by relaxing through each point in turn."""
    dist = [list(row) for row in cost]
    n = len(dist)
    for k in range(n):
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
