"""Morphisms of finite metric spaces: non-expansive point assignments.

Includes the morphism predicates (embedding, surjective, isomorphism)
and the (surjection, embedding) factorization through the image.  The
predicates read the target metric along a map through its index map
(target_indices) and build no pulled matrix; pulled_metric builds it
for kernel_metric, whose result it is.
"""

from __future__ import annotations

from operator import gt, ne

from .minplus import pointwise
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


def target_indices(f):
    """The target index of each source point's image, in source order:
    the index map through which f reads its target's metric."""
    position = {lab: k for k, lab in enumerate(f.target.labels)}
    return [position[lab] for lab in f.assignment]


def pulled_metric(f):
    """The target metric read along f: entry (i, j) is
    d_target(f(x_i), f(x_j)) for source points x_i, x_j."""
    idx = target_indices(f)
    return f.target.dist.sub(idx, idx)


def check_nonexpansive(f):
    """All pairs with d_target(f(x), f(y)) > d_source(x, y); empty means valid."""
    labels, dist = f.source.labels, f.source.dist
    target, idx = f.target.dist, target_indices(f)
    return [Violation("expansive", (labels[i], labels[j]),
                      "%s > %s" % (target.token(idx[i], idx[j]),
                                   dist.token(i, j)))
            for i, j in pointwise(target, dist, gt, idx)]


def is_nonexpansive(f):
    return not any(pointwise(f.target.dist, f.source.dist, gt,
                             target_indices(f)))


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
    return is_injective(f) and not any(
        pointwise(f.target.dist, f.source.dist, ne, target_indices(f)))


def is_surjective(f):
    return set(f.assignment) == set(f.target.labels)


def is_isomorphism(f):
    return is_embedding(f) and is_surjective(f)


def subspace(space, labels):
    """The subspace on the given labels (target order) with restricted metric,
    together with its inclusion embedding; KeyError for a label that is
    not a point, while a repeated label is kept once."""
    idx = sorted({space.index(lab) for lab in labels})
    keep = tuple(space.labels[i] for i in idx)
    sub = FinSpace(keep, space.dist.sub(idx, idx))
    return sub, FinMap(sub, space, keep)


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
