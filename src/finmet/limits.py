"""Finite (co)limits: binary products with the sup-metric, binary
coproducts with cross-distance infinity, equalizers, and pullbacks."""

from __future__ import annotations

from math import inf

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
    """The label "(x,y)" of a point of a product, with each part as
    _pair_part writes it, so distinct pairs have distinct labels."""
    return "(%s,%s)" % (_pair_part(x), _pair_part(y))


def _pair_part(label):
    """label itself when its parentheses balance, no comma lies outside
    them and it holds no quote or backslash; otherwise label in double
    quotes, with its quotes and backslashes escaped by a backslash.

    Either way the part ends at a comma outside parentheses and quotes,
    so the first part of a pair label can be read back from it.
    """
    depth = 0
    for ch in label:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch in '"\\' or (ch == "," and depth == 0):
            break
    else:
        if depth == 0:
            return label
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def split_labels(text):
    """The labels of a comma-separated list, split only at commas outside
    parentheses, so that a pair_label stays whole; within parentheses a
    quoted part, with its backslash escapes, is skipped as pair_label
    writes it."""
    labels, start, depth, quoted = [], 0, 0, False
    chars = enumerate(text)
    for pos, ch in chars:
        if quoted:
            if ch == "\\":
                next(chars, None)
            quoted = ch != '"'
        elif ch in "()":
            depth += 1 if ch == "(" else -1
        elif depth > 0:
            quoted = ch == '"'
        elif ch == ",":
            labels.append(text[start:pos])
            start = pos + 1
    labels.append(text[start:])
    return labels


def product(m1, m2):
    """All pairs with the sup-metric; returns (space, p1, p2)."""
    parts2 = [_pair_part(y) for y in m2.labels]  # pair_label's, each once
    labels = tuple(["(%s,%s)" % (u, v) for u in map(_pair_part, m1.labels)
                    for v in parts2])
    # Pair (x, y) has index x * n2 + y, so row (x, y) of the sup metric
    # runs over x' then y'.
    common, (a, b) = scale(m1.dist, m2.dist)
    rows = [[u if u >= v else v for u in a_row for v in b_row]
            for a_row in a for b_row in b]
    space = FinSpace(labels, IntMatrix(common, rows))
    p1 = FinMap(space, m1, tuple([x for x in m1.labels for _ in m2.labels]))
    p2 = FinMap(space, m2, m2.labels * m1.n)
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
    common, (a, b) = scale(m1.dist, m2.dist)
    pad1, pad2 = (inf,) * n1, (inf,) * m2.n
    rows = [[*row, *pad2] for row in a] + [[*pad1, *row] for row in b]
    space = FinSpace(labels, IntMatrix(common, rows))
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
