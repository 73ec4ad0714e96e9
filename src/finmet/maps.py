"""Morphisms of finite metric spaces: non-expansive point assignments.

Includes the morphism predicates (embedding, surjective, isomorphism)
and the (surjection, embedding) factorization through the image.  The
predicates read the target metric along a map through its index map
(target_indices) and build no pulled matrix; pulled_metric builds it
for kernel_metric, whose result it is and which checks it directly.
FinMap itself lives in spaces, beside the other records a workspace
holds, and is the same class here.
"""

from __future__ import annotations

from operator import gt, ne

from .minplus import pointwise
from .spaces import (FinMap, FinSpace, Violation, is_separated,
                     raise_first_violation)


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


def expansive_violations(labels, image, dist, idx=None):
    """Every pair (x_i, x_j) of labels at which image lies above dist,
    as an expansive Violation.  image is a target metric read along a
    map: through the index map idx when given (see minplus.pointwise),
    else already pulled back, as pulled_metric builds it."""
    at = range(len(labels)) if idx is None else idx
    return [Violation("expansive", (labels[i], labels[j]),
                      "%s > %s" % (image.token(at[i], at[j]),
                                   dist.token(i, j)))
            for i, j in pointwise(image, dist, gt, idx)]


def check_nonexpansive(f):
    """All pairs with d_target(f(x), f(y)) > d_source(x, y); empty means valid."""
    return expansive_violations(f.source.labels, f.target.dist,
                                f.source.dist, target_indices(f))


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
    image = dict(zip(g.source.labels, g.assignment)).__getitem__
    return FinMap(f.source, g.target, tuple(map(image, f.assignment)))


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
