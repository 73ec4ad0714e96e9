"""Finite (co)limits: binary products with the sup-metric, binary
coproducts with cross-distance infinity, equalizers, and pullbacks."""

from __future__ import annotations

from .maps import FinMap, compose, is_isomorphism, subspace
from .minplus import IntMatrix, scale
from .spaces import FinSpace, Frozen


class Square(Frozen):
    """A commuting square: bottom . left = right . top (apex = left.source)."""

    # left: W -> U, top: W -> V, bottom: U -> T, right: V -> T.
    __slots__ = ("left", "top", "bottom", "right")

    def __init__(self, left, top, bottom, right):
        if left.source != top.source:
            raise ValueError("square legs do not share an apex")
        if bottom.target != right.target:
            raise ValueError("square sides do not share a codomain")
        if left.target != bottom.source or top.target != right.source:
            raise ValueError("square sides do not match legs")
        set_ = object.__setattr__
        set_(self, "left", left)
        set_(self, "top", top)
        set_(self, "bottom", bottom)
        set_(self, "right", right)

    def commutes(self):
        a = compose(self.left, self.bottom)
        b = compose(self.top, self.right)
        return a.assignment == b.assignment


def pair_label(x, y):
    return "(%s,%s)" % (x, y)


def product(m1, m2):
    """All pairs with the sup-metric; returns (space, p1, p2)."""
    labels = tuple(pair_label(x, y) for x in m1.labels for y in m2.labels)
    # Pair (x, y) has index x * n2 + y, so row (x, y) of the sup metric
    # runs over x' then y'.  INF is big, above every finite entry.
    common, big, (a, b) = scale(m1.dist, m2.dist, terms=1)
    rows = [[u if u >= v else v for u in a_row for v in b_row]
            for a_row in a for b_row in b]
    space = FinSpace(labels, IntMatrix.from_scaled(common, rows, big))
    p1 = FinMap(space, m1, tuple(x for x in m1.labels for _ in m2.labels))
    p2 = FinMap(space, m2, tuple(y for _ in m1.labels for y in m2.labels))
    return space, p1, p2


def summand_label(side, label):
    return "%d:%s" % (side, label)


def coproduct(m1, m2):
    """Disjoint union; summands keep their metric, cross-distances are inf."""
    labels = tuple(
        [summand_label(0, x) for x in m1.labels]
        + [summand_label(1, y) for y in m2.labels]
    )
    n1 = m1.n
    common, big, (a, b) = scale(m1.dist, m2.dist, terms=1)
    rows = ([row + [big] * m2.n for row in a]
            + [[big] * n1 + row for row in b])
    space = FinSpace(labels, IntMatrix.from_scaled(common, rows, big))
    j1 = FinMap(m1, space, tuple(labels[:n1]))
    j2 = FinMap(m2, space, tuple(labels[n1:]))
    return space, j1, j2


def copair(f, g, coprod_space):
    """The map out of a coproduct induced by maps on the two summands."""
    if f.target != g.target:
        raise ValueError("copairing needs a common target")
    return FinMap(coprod_space, f.target, tuple(f.assignment) + tuple(g.assignment))


def equalizer(f, g):
    """The inclusion of {x | f(x) = g(x)} with the restricted metric."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("equalizer needs parallel morphisms")
    keep = [lab for lab, a, b in zip(f.source.labels, f.assignment, g.assignment)
            if a == b]
    _, incl = subspace(f.source, keep)
    return incl


def pullback(f, g):
    """The sub-product of pairs where the cospan legs agree.

    Returns a Square with the computed apex and projections as legs.
    """
    if f.target != g.target:
        raise ValueError("pullback needs a common target")
    _, p1, p2 = product(f.source, g.source)
    incl = equalizer(compose(p1, f), compose(p2, g))
    return Square(left=compose(incl, p1), top=compose(incl, p2),
                  bottom=f, right=g)


def is_pullback_square(sq):
    """True iff the comparison from the apex to the computed pullback is an iso."""
    if not sq.commutes():
        raise ValueError("square does not commute")
    computed = pullback(sq.bottom, sq.right)
    apex = computed.left.source
    cmp_assignment = tuple(
        pair_label(sq.left(w), sq.top(w)) for w in sq.left.source.labels
    )
    # The comparison is automatically well-defined and non-expansive.
    comparison = FinMap(sq.left.source, apex, cmp_assignment)
    return is_isomorphism(comparison)
