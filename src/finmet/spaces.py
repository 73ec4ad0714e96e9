"""Finite separated Lawvere metric spaces, and the records built on them.

A FinSpace is a finite labelled point set with a distance matrix, an
exact IntMatrix, required to satisfy only d(x,x) = 0 and the triangle
inequality; neither symmetry nor finiteness of distances is assumed.
Separation (d(x,y) = 0 = d(y,x) implies x = y) is the metric analogue
of antisymmetry and is checked, not assumed.  The checks here run on
the matrix's ints, where an infinite distance is math.inf, which they
compare but never add, and write their reports as tokens of the ints.
A distance is read off a record's matrix: its ints, or
IntMatrix.token(i, j) at the points' indices (index).

The records a workspace document holds live here beside FinSpace, so
that loading one needs no other construction module: FinMap,
Submetric, BlockMetric and CostMatrix.  Each is importable from the
module of its operations too (maps, quotients, corelations,
idempotents), as the same class.  A record takes only IntMatrix
matrices, which check_square checks.
"""

from __future__ import annotations

from math import inf

from .extarith import Frozen
from .minplus import IntMatrix, scale


class Violation(Frozen):
    """One violated axiom instance, with the points that witness it."""

    __slots__ = ("kind", "points", "detail")

    def __init__(self, kind, points, detail):
        set_ = object.__setattr__
        set_(self, "kind", kind)
        set_(self, "points", points)
        set_(self, "detail", detail)

    def __str__(self):
        return "%s at (%s): %s" % (self.kind, ", ".join(self.points), self.detail)


def raise_first_violation(what, violations):
    """Raise ValueError naming the first violation, if there is one."""
    if violations:
        raise ValueError("%s: %s" % (what, violations[0]))


def check_square(matrix, n, what, over):
    """A TypeError unless matrix is an IntMatrix, and a ValueError unless
    it has n rows of n entries."""
    if not isinstance(matrix, IntMatrix):
        raise TypeError("%s must be an IntMatrix, not %s"
                        % (what, type(matrix).__name__))
    rows = matrix.rows
    if len(rows) != n or not {n}.issuperset(map(len, rows)):
        raise ValueError("%s shape does not match %s" % (what, over))


def freeze_labelled_square(obj, labels, field, matrix, what):
    """Set obj.labels to labels as a tuple and obj.<field> to matrix,
    once the labels are unique and matrix is an IntMatrix square over
    them.  Shared by every frozen labels-plus-square-matrix class."""
    labels = tuple(labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate point labels")
    check_square(matrix, n, what, "label count")
    object.__setattr__(obj, "labels", labels)
    object.__setattr__(obj, field, matrix)


def label_index(labels, label):
    """The position of label in labels; KeyError naming it if absent."""
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError("no point labelled %r" % (label,)) from None


class FinSpace(Frozen):
    # dist is row-major: dist[i][j] = d(labels[i], labels[j]).
    __slots__ = ("labels", "dist")

    def __init__(self, labels, dist):
        freeze_labelled_square(self, labels, "dist", dist, "distance matrix")

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        return label_index(self.labels, label)


class FinMap(Frozen):
    # assignment holds target labels, in source label order.
    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError("assignment length does not match source size")
        labels = target.labels
        try:
            known = set(labels).issuperset(assignment)
        except TypeError:  # an unhashable label is unknown
            known = False
        for lab in () if known else assignment:
            if lab not in labels:
                raise ValueError("assignment hits unknown target point %r" % (lab,))
        set_ = object.__setattr__
        set_(self, "source", source)
        set_(self, "target", target)
        set_(self, "assignment", assignment)

    def __call__(self, label):
        return self.assignment[self.source.index(label)]

    def image_labels(self):
        """Hit target labels, in target label order."""
        hit = set(self.assignment)
        return tuple(lab for lab in self.target.labels if lab in hit)


class Submetric(Frozen):
    """A (possibly non-separated) metric on base's points, pointwise below d."""

    __slots__ = ("base", "gamma")

    def __init__(self, base, gamma):
        check_square(gamma, base.n, "submetric matrix", "base")
        set_ = object.__setattr__
        set_(self, "base", base)
        set_(self, "gamma", gamma)


class BlockMetric(Frozen):
    """block(i, j) holds the distance from (x, i) to (y, j) at (x, y)."""

    __slots__ = ("base", "g00", "g01", "g10", "g11")

    def __init__(self, base, g00, g01, g10, g11):
        set_ = object.__setattr__
        set_(self, "base", base)
        n = base.n
        for name, block in zip(self.__slots__[1:], (g00, g01, g10, g11)):
            check_square(block, n, "block " + name, "base")
            set_(self, name, block)

    def block(self, i, j):
        return getattr(self, "g%d%d" % (i, j))

    def as_matrix(self):
        """The full matrix on X + X (summand 0 first)."""
        common, (g00, g01, g10, g11) = scale(
            self.g00, self.g01, self.g10, self.g11)
        rows = [[*r0, *r1] for r0, r1 in zip(g00, g01)]
        rows += [[*r0, *r1] for r0, r1 in zip(g10, g11)]
        return IntMatrix(common, rows)

    @classmethod
    def from_matrix(cls, base, full):
        """The block metric of a matrix on X + X (summand 0 first); the
        inverse of as_matrix."""
        n = base.n
        check_square(full, 2 * n, "matrix", "X + X")
        halves = range(n), range(n, 2 * n)
        return cls(base, *(full.sub(rows, cols)
                           for rows in halves for cols in halves))


class CostMatrix(Frozen):
    __slots__ = ("labels", "rho")

    def __init__(self, labels, rho):
        freeze_labelled_square(self, labels, "rho", rho, "cost matrix")


def validate_metric(space):
    """All metric-axiom violations of a candidate FinSpace; empty means valid."""
    return metric_violations(space.labels, space.dist)


def metric_violations(labels, dist):
    """Every metric-axiom violation of a labelled IntMatrix, as a list of
    Violations (shared with submetric validation); empty means valid."""
    rows = dist.rows
    out = [Violation("nonzero-diagonal", (labels[i],),
                     "d(x,x) = %s" % dist.token(i, i))
           for i, row in enumerate(rows) if row[i] != 0]
    # An INF d(i, j) or d(j, k) cannot break d(i, k) <= d(i, j) + d(j, k),
    # so only finite ones are visited; an INF d(i, k) is still compared.
    # Nor can j = i or k = j, as entries are >= 0: d(i, k) <= d(i, i) +
    # d(i, k) and d(i, j) <= d(i, j) + d(j, j).  k = i is still visited.
    off = [[j for j, x in enumerate(row) if x != inf and j != i]
           for i, row in enumerate(rows)]
    for i, row_i in enumerate(rows):
        for j in off[i]:
            dij = row_i[j]
            row_j = rows[j]
            for k in off[j]:
                if row_i[k] > dij + row_j[k]:
                    out.append(Violation(
                        "triangle", (labels[i], labels[j], labels[k]),
                        "%s > %s + %s" % (dist.token(i, k), dist.token(i, j),
                                          dist.token(j, k))))
    return out


def is_separated(space):
    """No distinct pair at distance 0 in both directions: one zero class
    per point.  Stops at the first such pair."""
    rows = space.dist.rows
    n = len(rows)
    for i, row in enumerate(rows):
        if row.count(0) == (row[i] == 0):  # no zero off the diagonal
            continue
        for j in range(i + 1, n):
            if row[j] == 0 and rows[j][i] == 0:
                return False
    return True


def zero_classes(labels, mat):
    """Partition by x ~ y iff mat(x,y) = mat(y,x) = 0, for an IntMatrix mat.

    Classes are ordered by first occurrence; members keep label order.
    Well-defined for any matrix satisfying the metric axioms.
    """
    rows = mat.rows
    n = len(labels)
    assigned = [None] * n
    classes = []
    for i in range(n):
        if assigned[i] is not None:
            continue
        members = [i]
        assigned[i] = len(classes)
        row = rows[i]
        if row.count(0) != (row[i] == 0):  # a zero off the diagonal
            for j in range(i + 1, n):
                if row[j] == 0 and rows[j][i] == 0 and assigned[j] is None:
                    members.append(j)
                    assigned[j] = len(classes)
        classes.append(tuple(members))
    return classes, assigned


def quotient_by_zero_classes(space, mat):
    """The projection of space onto its classes under x ~ y iff
    mat(x,y) = mat(y,x) = 0.

    The quotient distance between classes is mat between any
    representatives, which the triangle inequality makes well-defined;
    class labels are "[least member label]".
    """
    classes, assigned = zero_classes(space.labels, mat)
    label = space.labels.__getitem__
    qlabels = tuple("[%s]" % min(map(label, members)) for members in classes)
    reps = [members[0] for members in classes]
    quotient = FinSpace(qlabels, mat.sub(reps, reps))
    return FinMap(space, quotient, tuple(map(qlabels.__getitem__, assigned)))


def sep_reflection(space):
    """The separation-reflection quotient and its projection.

    Identifies x, y whenever d(x,y) = d(y,x) = 0: the quotient of the
    space by its own metric.
    """
    proj = quotient_by_zero_classes(space, space.dist)
    return proj.target, proj
