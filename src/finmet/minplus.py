"""Min-plus (tropical) matrix operations on ExtValue matrices.

Matrices are tuples of tuples of ExtValue.  One product kernel serves
square and rectangular operands alike; the pushout formula builds its
mixed blocks from it.  The closure here is the all-pairs shortest-path
saturation: the least matrix below the given costs that satisfies the
triangle inequality.  It doubles as the independent oracle for the
explicit pushout formula and as the repair step of the random-space
generator.
"""

from __future__ import annotations

from .extarith import ext_min_all


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def minplus_product(rows, cols):
    """out[i][j] = min_k rows[i][k] + cols[j][k], of shape len(rows) x len(cols).

    The second operand is given by its columns, so an inner dimension of
    zero still fixes the output shape; every such entry is the empty
    minimum INF.
    """
    return tuple(
        tuple(ext_min_all(u + v for u, v in zip(row, col)) for col in cols)
        for row in rows
    )


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
    dist = [list(row) for row in cost]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik.is_inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                cand = dik + row_k[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return freeze(dist)
