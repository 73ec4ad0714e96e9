"""Finite separated Lawvere metric spaces.

A FinSpace is a finite labelled point set with a distance matrix, an
exact IntMatrix whose entries read as ExtValue, required to satisfy
only d(x,x) = 0 and the triangle inequality; neither symmetry nor
finiteness of distances is assumed.  Separation (d(x,y) = 0 = d(y,x)
implies x = y) is the metric analogue of antisymmetry and is checked,
not assumed.  The checks here run on the matrix's ints.
"""

from __future__ import annotations

from operator import attrgetter

from .minplus import IntMatrix, scale


class Frozen:
    """An immutable record whose fields are its class's __slots__.

    A subclass's __init__ sets each field once through
    object.__setattr__.  == holds between instances of one class with
    equal fields, the hash is that of the fields' tuple, and repr reads
    Name(field=value, ...), as for a frozen dataclass.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        # copy rebuilds through __init__, as it cannot set an immutable slot.
        return type(self), self._values(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


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


def freeze_labelled_square(obj, labels, field, matrix, what):
    """Set obj.labels to labels as a tuple and obj.<field> to matrix as
    an IntMatrix, once the labels are unique and the matrix is square
    over them.  Shared by every frozen labels-plus-square-matrix
    class."""
    labels = tuple(labels)
    matrix = IntMatrix.of(matrix)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate point labels")
    if not matrix.is_square(n):
        raise ValueError("%s shape does not match label count" % what)
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

    def d(self, x, y):
        return self.dist[self.index(x)][self.index(y)]


def validate_metric(space):
    """All metric-axiom violations of a candidate FinSpace; empty means valid."""
    return metric_violations(space.labels, space.dist)


def metric_violations(labels, dist):
    """Axiom check on a raw labelled matrix (shared with submetric validation)."""
    out = []
    n = len(labels)
    dist = IntMatrix.of(dist)
    _, _, (ints,) = scale(dist, terms=2)
    for i in range(n):
        if ints[i][i] != 0:
            out.append(Violation("nonzero-diagonal", (labels[i],),
                                 "d(x,x) = %s" % dist[i][i]))
    for i in range(n):
        row_i = ints[i]
        for j in range(n):
            dij = row_i[j]
            row_j = ints[j]
            for k in range(n):
                if row_i[k] > dij + row_j[k]:
                    out.append(Violation(
                        "triangle", (labels[i], labels[j], labels[k]),
                        "%s > %s + %s" % (dist[i][k], dist[i][j], dist[j][k])))
    return out


def is_separated(space):
    """No distinct pair at distance 0 in both directions."""
    rows = space.dist.rows
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            if row[j] == 0 and rows[j][i] == 0:
                return False
    return True


def zero_classes(labels, mat):
    """Partition by x ~ y iff mat(x,y) = mat(y,x) = 0.

    Classes are ordered by first occurrence; members keep label order.
    Well-defined for any matrix satisfying the metric axioms.
    """
    rows = IntMatrix.of(mat).rows
    n = len(labels)
    assigned = [None] * n
    classes = []
    for i in range(n):
        if assigned[i] is not None:
            continue
        members = [i]
        assigned[i] = len(classes)
        row = rows[i]
        for j in range(i + 1, n):
            if assigned[j] is None and row[j] == 0 and rows[j][i] == 0:
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
    from .maps import FinMap

    mat = IntMatrix.of(mat)
    classes, assigned = zero_classes(space.labels, mat)
    qlabels = tuple("[%s]" % min(space.labels[i] for i in members)
                    for members in classes)
    reps = [members[0] for members in classes]
    quotient = FinSpace(qlabels, mat.sub(reps, reps))
    return FinMap(space, quotient,
                  tuple(qlabels[assigned[i]] for i in range(space.n)))


def sep_reflection(space):
    """The separation-reflection quotient and its projection.

    Identifies x, y whenever d(x,y) = d(y,x) = 0: the quotient of the
    space by its own metric.
    """
    proj = quotient_by_zero_classes(space, space.dist)
    return proj.target, proj
