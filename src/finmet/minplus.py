"""Min-plus (tropical) matrix operations on ExtValue matrices.

Matrices are tuples of tuples of ExtValue.  One product kernel serves
square and rectangular operands alike; the pushout formula builds its
mixed blocks from it.  The closure here is the all-pairs shortest-path
saturation: the least matrix below the given costs that satisfies the
triangle inequality.  It doubles as the independent oracle for the
explicit pushout formula and as the repair step of the random-space
generator.

Every kernel is exact integer arithmetic: its operands are scaled once
to a common denominator, the loops run on plain ints, and the result is
converted back to ExtValue.
"""

from __future__ import annotations

from math import lcm

from .extarith import INF, fin


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def scale(*matrices, terms):
    """(L, big, scaled): the matrices over one common denominator L.

    A finite entry p/q becomes the int p * (L // q) and INF becomes big,
    which exceeds every sum of at most `terms` finite entries, so such a
    sum is finite exactly when it is below big.
    """
    # _frac is the Fraction, or None for INF; the public properties cost
    # about a tenth of a 24-point closure.
    fracs = [[[v._frac for v in row] for row in m] for m in matrices]
    common = lcm(*{f.denominator for m in fracs for row in m
                   for f in row if f is not None})
    nums = [[[None if f is None else f.numerator * (common // f.denominator)
              for f in row] for row in m] for m in fracs]
    big = terms * max((x for m in nums for row in m for x in row
                       if x is not None), default=0) + 1
    return common, big, [[[big if x is None else x for x in row]
                          for row in m] for m in nums]


def unscale(m, common, big):
    """The ExtValue matrix of a scaled one: values >= big are INF."""
    memo = {}

    def value(x):
        v = memo.get(x)
        if v is None:
            v = memo[x] = INF if x >= big else fin(x, common)
        return v

    return tuple(tuple(value(x) for x in row) for row in m)


def minplus_product(rows, cols):
    """out[i][j] = min_k rows[i][k] + cols[j][k], of shape len(rows) x len(cols).

    The second operand is given by its columns, so an inner dimension of
    zero still fixes the output shape; every such entry is the empty
    minimum INF.
    """
    common, big, (rows, cols) = scale(rows, cols, terms=2)
    return unscale([[min([u + v for u, v in zip(row, col)], default=big)
                     for col in cols] for row in rows], common, big)


def minplus_matmul(a, b):
    """Tropical product of square matrices: out[i][j] = min_k a[i][k] + b[k][j]."""
    return minplus_product(a, tuple(zip(*b)))


def minplus_closure(cost):
    """All-pairs relaxation of a square cost matrix (Floyd-Warshall).

    For a matrix with zero diagonal the result is the least valid metric
    below the given costs.  Iteration order is fixed by point index, so
    the result is deterministic.
    """
    n = len(cost)
    # Every relaxed value is a shortest path or cycle of at most n arcs.
    common, big, (dist,) = scale(cost, terms=max(n, 2))
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            row_i = dist[i]
            dik = row_i[k]
            if dik >= big:
                continue
            for j in range(n):
                cand = dik + row_k[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return unscale(dist, common, big)
