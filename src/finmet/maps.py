"""Morphisms of finite metric spaces: non-expansive point assignments.

Includes the morphism predicates (embedding, surjective, isomorphism)
and the (surjection, embedding) factorization through the image.
"""

from __future__ import annotations

from .minplus import scale
from .spaces import (FinSpace, Frozen, Violation, is_separated,
                     raise_first_violation)


class FinMap(Frozen):
    # assignment holds target labels, in source label order.
    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        assignment = tuple(assignment)
        if len(assignment) != source.n:
            raise ValueError("assignment length does not match source size")
        labels = target.labels
        for lab in assignment:
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


def identity(space):
    return FinMap(space, space, space.labels)


def check_nonexpansive(f):
    """All pairs with d_target(f(x), f(y)) > d_source(x, y); empty means valid."""
    out = []
    src, tgt = f.source, f.target
    idx = [tgt.index(lab) for lab in f.assignment]
    _, _, (s, t) = scale(src.dist, tgt.dist, terms=1)
    for i, s_row in enumerate(s):
        t_row = t[idx[i]]
        for j, s_ij in enumerate(s_row):
            if t_row[idx[j]] > s_ij:
                out.append(Violation(
                    "expansive", (src.labels[i], src.labels[j]),
                    "%s > %s" % (tgt.dist[idx[i]][idx[j]], src.dist[i][j])))
    return out


def is_nonexpansive(f):
    return not check_nonexpansive(f)


def require_nonexpansive(f):
    """Raise ValueError naming the first pair that f stretches."""
    raise_first_violation("map is not non-expansive", check_nonexpansive(f))


def compose(f, g):
    """The composite g . f (apply f first); boundary mismatch is an error."""
    if f.target != g.source:
        raise ValueError("target of first map differs from source of second")
    return FinMap(f.source, g.target, tuple(g(lab) for lab in f.assignment))


def is_injective(f):
    return len(set(f.assignment)) == f.source.n


def is_embedding(f):
    """Injective with the source metric the exact restriction of the target's."""
    if not is_injective(f):
        return False
    src, tgt = f.source, f.target
    idx = [tgt.index(lab) for lab in f.assignment]
    _, _, (s, t) = scale(src.dist, tgt.dist, terms=1)
    return all(s_row == [t[i][j] for j in idx] for s_row, i in zip(s, idx))


def is_surjective(f):
    return set(f.assignment) == set(f.target.labels)


def is_isomorphism(f):
    return is_embedding(f) and is_surjective(f)


def subspace(space, labels):
    """The subspace on the given labels (target order) with restricted metric,
    together with its inclusion embedding."""
    wanted = set(labels)
    keep = [lab for lab in space.labels if lab in wanted]
    idx = [space.index(lab) for lab in keep]
    sub = FinSpace(tuple(keep), space.dist.sub(idx, idx))
    return sub, FinMap(sub, space, tuple(keep))


def factorize(f):
    """f = i . q with q surjective onto the image and i an embedding.

    Stated for separated source and target only; the image inherits the
    target labels and metric, so it is separated too.
    """
    require_nonexpansive(f)
    if not (is_separated(f.source) and is_separated(f.target)):
        raise ValueError("factorization requires separated source and target")
    image, incl = subspace(f.target, f.image_labels())
    q = FinMap(f.source, image, f.assignment)
    return q, incl
