"""Exact matrices over [0, inf] and the min-plus (tropical) kernels on them.

An IntMatrix holds its entries as plain ints over one common
denominator, with math.inf for INF; it is how every space, submetric,
block and cost matrix stores its distances.  Reading a row or an entry
gives ExtValue, so callers that index, iterate or take len() see nested
ExtValue sequences.  Nested ExtValue literals become an IntMatrix only
through the classmethod of, which the record constructors,
harness._GRID and one selftest fixture call; the workspace loader reads
tokens straight to ints.  The kernels take IntMatrix operands.

One product kernel serves square and rectangular operands alike; the
pushout formula builds its mixed blocks from it, and the idempotence
test of a cost matrix or a cross block squares the matrix on its own
ints (equals_own_square).  The closure here is
the all-pairs shortest-path saturation: the least matrix below the given
costs that satisfies the triangle inequality.  It doubles as the
independent oracle for the explicit pushout formula and as the repair
step of the random-space generator.  The entrywise comparison serves
every order check of two matrices: non-expansive maps and embeddings
(reading the target through the map's index map), submetrics below d,
the order of quotients and the corelation laws.

Every kernel is exact integer arithmetic: its operands are put over one
common denominator (a no-op when they already share it), the loops run
on plain ints, and a matrix result is again an IntMatrix.  math.inf is
the one float.  It is compared with ints, which Python does exactly for
ints of any size, and it is never an operand of +, * or //, which could
overflow or give nan on ints beyond float range.  The closure, the
product and the triangle check (under spaces.metric_violations and
spaces.is_metric) loop only over finite terms, the columns that
finite_columns lists: a sum with an INF term is INF, so it can neither
lower a minimum nor break a triangle.
"""

from __future__ import annotations

from itertools import chain, compress, count
from math import gcd, inf, lcm

from .extarith import INF, Frozen, fin


class IntMatrix(Frozen, fields=("den", "rows")):
    """A frozen matrix over [0, inf]: entry (i, j) is rows[i][j] / den, or
    INF where rows[i][j] is math.inf.

    den is reduced by the gcd of the finite entries, so two matrices with
    the same entries have the same (den, rows), and == and hash compare
    exactly that: an IntMatrix equals only an IntMatrix.  len(), indexing
    and iteration read the ExtValue form, converted once and kept.
    """

    __slots__ = ("den", "rows", "_ext")

    def __init__(self, den, rows):
        rows = tuple(map(tuple, rows))
        # Fold the gcd row by row; once it is 1 it stays 1.
        g = den
        for row in rows:
            if g == 1:
                break
            g = gcd(g, *[x for x in row if x != inf])
        if g > 1:
            den //= g
            rows = tuple(tuple(x if x == inf else x // g for x in row)
                         for row in rows)
        set_ = object.__setattr__
        set_(self, "den", den)
        set_(self, "rows", rows)
        set_(self, "_ext", None)

    @classmethod
    def of(cls, matrix):
        """matrix itself if it is an IntMatrix, else the IntMatrix of a
        nested sequence of ExtValue; TypeError for any other entry."""
        if isinstance(matrix, cls):
            return matrix
        try:
            # _frac is the Fraction, or None for INF.
            fracs = [[v._frac for v in row] for row in matrix]
        except AttributeError:
            raise TypeError("matrix entries must be ExtValue") from None
        den = lcm(*{f.denominator for row in fracs for f in row
                    if f is not None})
        return cls(den, [[inf if f is None
                          else f.numerator * (den // f.denominator)
                          for f in row] for row in fracs])

    def scaled(self, factor):
        """The rows as read-only tuples, each finite entry times factor;
        the matrix's own rows when factor is 1."""
        if factor == 1:
            return self.rows
        return tuple(tuple([x if x == inf else x * factor for x in row])
                     for row in self.rows)

    def sub(self, row_idx, col_idx):
        """The matrix of entries (i, j) for i in row_idx, j in col_idx."""
        rows = self.rows
        return IntMatrix(self.den, [[rows[i][j] for j in col_idx]
                                    for i in row_idx])

    def is_square(self, n):
        return len(self.rows) == n and all(len(row) == n for row in self.rows)

    def ext(self):
        """The entries as a tuple of tuples of ExtValue."""
        ext = self._ext
        if ext is None:
            den = self.den
            value = {x: INF if x == inf else fin(x, den)
                     for x in set(chain.from_iterable(self.rows))}.__getitem__
            ext = tuple(tuple(map(value, row)) for row in self.rows)
            object.__setattr__(self, "_ext", ext)
        return ext

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        return self.ext()[i]

    def __iter__(self):
        return iter(self.ext())

    def __repr__(self):
        return "IntMatrix(%r)" % ([[v.token() for v in row]
                                   for row in self.ext()],)


def scale(*matrices):
    """(L, rows): the matrices' rows over one common denominator L.

    Each matrix is an IntMatrix.  A finite entry p/den becomes the int
    p * (L // den), and inf stays inf.  The rows are read-only tuples, a
    matrix's own rows where its denominator is already L; a caller that
    writes makes its own copy.
    """
    common = lcm(*[m.den for m in matrices])
    return common, [m.scaled(common // m.den) for m in matrices]


def finite_columns(row):
    """The columns at which row is finite, in order: the only terms
    through this row of a min-plus sum that can be finite."""
    return [j for j, x in enumerate(row) if x != inf]


def int_product(rows, other, ncols):
    """out[i][j] = min_k rows[i][k] + other[k][j] on scaled ints, with
    ncols columns; an empty minimum, and every INF one, is inf.

    Only finite terms are visited: each finite rows[i][k] is added to
    the finite entries of other[k], and the sums are kept in row i's
    running minima.
    """
    finite = [finite_columns(o_row) for o_row in other]
    out = []
    for row in rows:
        acc = [inf] * ncols
        for w, o_row, cols in zip(row, other, finite):
            if w != inf:
                for j in cols:
                    s = w + o_row[j]
                    if s < acc[j]:
                        acc[j] = s
        out.append(acc)
    return out


def pointwise(a, b, op, idx=None):
    """Yield, in row-major order, each (i, j) at which op(a[i][j], b[i][j])
    holds, for two IntMatrix operands of one shape.

    With idx, a is read through it: a[idx[i]][idx[j]] stands for
    a[i][j], so a matrix read along a map (idx[i] the image of point i)
    is compared without building it; b then has len(idx) rows and
    columns.  op, such as operator.gt, compares ints over one common
    denominator, INF above every finite value.  The scan is lazy: a
    caller that takes the first item stops at the first entry where op
    holds.
    """
    _, (a, b) = scale(a, b)
    if idx is not None:
        a = [map(a[k].__getitem__, idx) for k in idx]
    for i, (a_row, b_row) in enumerate(zip(a, b)):
        for j in compress(count(), map(op, a_row, b_row)):
            yield i, j


def equals_own_square(m):
    """Whether the square IntMatrix m equals its min-plus square.

    The square of a matrix over denominator den is again over den: a
    finite entry of it is a sum p/den + q/den, or a minimum of such
    sums.  So the product is taken on m's own ints, with no rescaling,
    and two matrices over one denominator are equal exactly when their
    ints are.
    """
    rows = m.rows
    return tuple(map(tuple, int_product(rows, rows, len(rows)))) == rows


def minplus_matmul(a, b):
    """Tropical product of square matrices: out[i][j] = min_k a[i][k] + b[k][j]."""
    common, (a, b) = scale(a, b)
    return IntMatrix(common, int_product(a, b, len(b)))


def minplus_closure(cost):
    """All-pairs relaxation of a square cost matrix (Floyd-Warshall).

    For a matrix with zero diagonal the result is the least valid metric
    below the given costs.  Iteration order is fixed by point index, so
    the result is deterministic.
    """
    common, (dist,) = scale(cost)
    dist = [list(row) for row in dist]
    for k in range(len(dist)):
        # Row k stays fixed while k is the pivot, as d(k, k) >= 0; its
        # INF entries relax nothing.
        row_k = dist[k]
        cols = finite_columns(row_k)
        for row_i in dist:
            dik = row_i[k]
            if dik == inf:
                continue
            for j in cols:
                cand = dik + row_k[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return IntMatrix(common, dist)
