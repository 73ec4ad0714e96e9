"""Exact matrices over [0, inf] and the min-plus (tropical) kernels on them.

An IntMatrix holds its entries as plain ints over one common
denominator, with math.inf for INF; it is how every space, submetric,
block and cost matrix stores its distances, and the only matrix form a
record accepts.  finmet computes on those ints (rows), and an entry
leaves as ints or as a canonical token: token(i, j) for one entry,
tokens() for the whole matrix, which reports and dumps write.  Values
from outside enter as rows of canonical tokens, through the
classmethod from_tokens, which the workspace loader calls; finmet's
own code builds IntMatrix(den, rows) directly.  Iterating a matrix
builds ExtValue rows on each pass, for callers only.  The kernels take
IntMatrix operands.

One product kernel, its minima starting from given rows or INF, serves
square and rectangular operands alike; the pushout formula builds its
blocks from it.  The idempotence test (zero_diagonal_witnesses) is one
pass through a matrix's zero-diagonal points on its own ints that keeps
each entry's least witness; it costs the full square only when the whole
diagonal is zero.  The closure here is the all-pairs shortest-path
saturation: the least matrix below the given costs that satisfies the
triangle inequality.  It doubles as the closure step of pushouts.glue,
the independent oracle's route for the explicit pushout formula, which
relaxes through the glue points only, and as the repair step of the
random-space generator.  The entrywise comparison serves every order
check of two matrices: non-expansive maps and embeddings (reading the
target through the map's index map), submetrics below d, the order of
quotients and the corelation laws.

Every kernel is exact integer arithmetic: its operands are put over one
common denominator (a no-op when they already share it), the loops run
on plain ints, and a matrix result is again an IntMatrix.  math.inf is
the one float.  It is compared with ints, which Python does exactly for
ints of any size, and it is never an operand of +, * or //, which could
overflow or give nan on ints beyond float range.  The closure, the
product and the triangle check (spaces.metric_violations) loop only
over finite terms, the columns that finite_columns lists: a sum with an
INF term is INF, so it can neither lower a minimum nor break a
triangle.  Nor can a term through a diagonal entry, which is >= 0: the
closure skips the pivot's row and column, and the triangle check the
triples with j = i or k = j.
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from math import gcd, inf, lcm
from operator import itemgetter

from .extarith import INF, ExtValue, Frozen, ratio, token


class IntMatrix(Frozen):
    """A frozen matrix over [0, inf]: entry (i, j) is rows[i][j] / den, or
    INF where rows[i][j] is math.inf.

    den is reduced by the gcd of the finite entries, so two matrices with
    the same entries have the same (den, rows), and == and hash compare
    exactly that: an IntMatrix equals only an IntMatrix.  len() counts
    the rows; iteration builds ExtValue rows on each pass.
    finmet builds IntMatrix(den, rows) from its own ints; values from
    outside enter through from_tokens, which checks each token.
    """

    __slots__ = ("den", "rows")

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

    @classmethod
    def from_tokens(cls, rows):
        """The IntMatrix of rows of canonical tokens (extarith.ratio),
        over the lcm of their denominators; a ValueError naming the
        first bad token in row-major order.

        Each distinct token is read once, in the order of first
        occurrence."""
        tokens = list(chain.from_iterable(rows))
        if not set(map(type, tokens)) <= {str}:
            # A list or object cannot key a dict; reading in order stops at
            # the first bad token, at the latest at the first non-string.
            for tok in tokens:
                ratio(tok)
        ratios = {tok: ratio(tok) for tok in dict.fromkeys(tokens)}
        den = lcm(*[r[1] for r in ratios.values() if r is not None])
        ints = {tok: inf if r is None else r[0] * (den // r[1])
                for tok, r in ratios.items()}.__getitem__
        return cls(den, [tuple(map(ints, row)) for row in rows])

    def scaled(self, factor):
        """The rows as read-only tuples, each finite entry times factor;
        the matrix's own rows when factor is 1."""
        if factor == 1:
            return self.rows
        return tuple(tuple([x if x == inf else x * factor for x in row])
                     for row in self.rows)

    def sub(self, row_idx, col_idx):
        """The matrix of entries (i, j) for i in row_idx, j in col_idx."""
        # itemgetter of one index gives the bare entry, and of none fails.
        pick = (itemgetter(*col_idx) if len(col_idx) > 1
                else lambda row: [row[j] for j in col_idx])
        return IntMatrix(self.den, [pick(self.rows[i]) for i in row_idx])

    def token(self, i, j):
        """The canonical token of entry (i, j)."""
        return token(self.rows[i][j], self.den)

    def tokens(self):
        """The matrix as rows of canonical tokens, each distinct int
        written once."""
        den = self.den
        tok = {x: token(x, den)
               for x in set(chain.from_iterable(self.rows))}.__getitem__
        return [list(map(tok, row)) for row in self.rows]

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        # Rows of ExtValue, each distinct int converted once.
        from fractions import Fraction

        den = self.den
        value = {x: INF if x == inf else ExtValue(Fraction(x, den))
                 for x in set(chain.from_iterable(self.rows))}.__getitem__
        return iter([tuple(map(value, row)) for row in self.rows])

    def __repr__(self):
        return "IntMatrix(%r)" % (self.tokens(),)


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


def int_product(rows, other, ncols, start=None):
    """out[i][j] = min(start[i][j], min_k rows[i][k] + other[k][j]) on
    scaled ints, with ncols columns; start defaults to all inf, so an
    empty minimum, and every INF one, is inf.

    Only finite terms are visited: each finite rows[i][k] is added to
    the finite entries of other[k], and the sums are kept in row i's
    running minima, which start from start[i].
    """
    finite = [finite_columns(o_row) for o_row in other]
    out = []
    for row, acc in zip(rows, map(list, start or repeat((inf,) * ncols))):
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
        rows = a
        a = (map(rows[k].__getitem__, idx) for k in idx)
    for i, (a_row, b_row) in enumerate(zip(a, b)):
        for j in compress(count(), map(op, a_row, b_row)):
            yield i, j


def zero_diagonal_witnesses(m):
    """None if the square IntMatrix m is not its own min-plus square,
    else its witnesses: rows of the least z with m[z][z] = 0 and m[x][z]
    + m[z][y] = m[x][y] at each finite (x, y), and None at INF.

    Let Z be the points with m[z][z] = 0.  m equals its square exactly
    when
    - m = m[:, Z] * m[Z, :], and
    - m[a][b] <= m[a][k] + m[k][b] for a, b in Z and k outside Z.
    If m = m * m, the idempotence lemma attains each finite entry
    through some z in Z, and m * m <= m[:, Z] * m[Z, :] always, so the
    first clause holds; the second is m[a][b] <= (m * m)[a][b].
    Conversely, write P = m[:, Z], Q = m[Z, :] and M = m[Z, Z].  The
    first clause on the Z columns is P = P * M, and on the Z rows and
    columns with the second clause it gives Q * P = M, since the terms
    of (Q * P)[a][b] through k in Z have M[a][b] as their least and
    those through k outside Z lie above it.  So m * m = P (Q P) Q =
    P M Q = P Q = m.

    Both clauses take n^2 |Z| + |Z|^2 (n - |Z|) steps, at most n^3, on
    m's own ints, which are exact as the square is over m's denominator.
    """
    rows = m.rows
    zero = [z for z, row in enumerate(rows) if row[z] == 0]
    # Z decreasing, so the least z is written last; finite terms only.
    routes = [(z, [(j, x) for j, x in enumerate(rows[z]) if x != inf])
              for z in reversed(zero)]
    table = []
    for row in rows:
        witness = [None] * len(rows)
        for z, finite in routes:
            w = row[z]
            if w != inf:
                for j, x in finite:
                    s = w + x
                    if s <= row[j]:
                        if s < row[j]:
                            return None
                        witness[j] = z
        if witness.count(None) != row.count(inf):  # a finite entry unmet
            return None
        table.append(witness)
    for k, row_k in enumerate(rows):
        if row_k[k] == 0:
            continue
        # The Z columns at which row k is finite; INF terms break nothing.
        back = [(b, row_k[b]) for b in zero if row_k[b] != inf]
        for row_a in [rows[a] for a in zero]:
            w = row_a[k]
            if w != inf:
                for b, x in back:
                    if w + x < row_a[b]:
                        return None
    return table


def equals_own_square(m):
    """Whether the square IntMatrix m equals its min-plus square."""
    return zero_diagonal_witnesses(m) is not None


def minplus_matmul(a, b):
    """Tropical product of square matrices: out[i][j] = min_k a[i][k] + b[k][j]."""
    common, (a, b) = scale(a, b)
    return IntMatrix(common, int_product(a, b, len(b)))


def minplus_closure(cost, pivots=None):
    """All-pairs relaxation of a square cost matrix (Floyd-Warshall).

    For a matrix with zero diagonal the result is the least valid metric
    below the given costs.  Iteration order is fixed by point index, so
    the result is deterministic.

    With pivots, only those points are relaxed through, in the order
    given.  That is the full closure when cost is a closed matrix with
    some entries between two pivots lowered (the arcs): with the arcs
    removed, the matrix is closed.  A shortest path then is a chain of
    single closed entries joined by arcs, so every point inside it is a
    pivot.  On any other matrix the result may lie above the closure.

    Pivoting on k skips row and column k, as entries are >= 0: d(k, k) +
    d(k, j) >= d(k, j) and d(i, k) + d(k, k) >= d(i, k).
    """
    common, (dist,) = scale(cost)
    dist = [list(row) for row in dist]
    for k in range(len(dist)) if pivots is None else pivots:
        # Row and column k stay fixed; row k's INF entries relax nothing.
        row_k = dist[k]
        cols = [j for j, x in enumerate(row_k) if x != inf and j != k]
        for row_i in dist[:k] + dist[k + 1:]:
            dik = row_i[k]
            if dik == inf:
                continue
            for j in cols:
                cand = dik + row_k[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return IntMatrix(common, dist)
