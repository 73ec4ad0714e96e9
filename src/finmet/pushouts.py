"""Explicit pushouts along embeddings.

The pushout of B <- A -> X (with A -> X an embedding and A -> B
non-expansive) is the separation quotient of B + X under a submetric
gamma whose mixed blocks are min-plus products over the glue points.
Every pushout goes through this one formula, cokernel pairs included.
An independent shortest-path closure oracle recomputes gamma from the
raw gluing costs so the two routes can be compared exactly.

The universal property is decided exactly, with no sampling: each
cocone counts as its kernel metric k on B + X, a mediator out of the
apex exists iff k <= K (the apex metric read along the legs, 0 where
two legs meet), and every k lies below the kernel of the greatest
cocone, the glued closure of B + X, so checking that one cocone decides
them all.
"""

from __future__ import annotations

from operator import lt

from .limits import Square, coproduct
from .maps import (compose, is_embedding, require_nonexpansive,
                   target_indices)
from .minplus import (IntMatrix, int_product, minplus_closure, pointwise,
                      scale)
from .quotients import Submetric, quotient_by_submetric
from .spaces import Frozen, is_separated


class PushoutResult(Frozen):
    # square has left: A -> B, top: A -> X, and bottom, right: the legs
    # into the apex P; gamma is the submetric on B + X the apex was
    # built from.
    __slots__ = ("square", "gamma")

    def __init__(self, square, gamma):
        set_ = object.__setattr__
        set_(self, "square", square)
        set_(self, "gamma", gamma)

    @property
    def apex(self):
        return self.square.bottom.target

    @property
    def leg_b(self):
        return self.square.bottom

    @property
    def leg_x(self):
        return self.square.right


def _check_pushout_inputs(i, f):
    if i.source != f.source:
        raise ValueError("pushout legs must share their source")
    if not is_embedding(i):
        raise ValueError("pushout is only computed along an embedding")
    require_nonexpansive(f)
    for sp in (i.source, i.target, f.target):
        if not is_separated(sp):
            raise ValueError("pushout requires separated spaces")


def pushout_along_embedding(i, f):
    """Pushout of f: A -> B along the embedding i: A -> X.

    gamma on B + X has four blocks.  B-B is d_B.  The mixed blocks route
    through one glue point, each a min-plus product over A:
    B->X = d_B[:, fA] * d_X[iA, :] and X->B = d_X[:, iA] * d_B[fA, :].
    X-X is the pointwise min of d_X and the detour X->B->X, the X->B
    block on the fA columns times d_X[iA, :].  The apex is the
    separation quotient.

    A, B and X must be metrics.  That is not checked again here, as
    every caller has checked it (Workspace.get, the generators).
    """
    _check_pushout_inputs(i, f)
    x_space, b_space = i.target, f.target
    ia, fa = target_indices(i), target_indices(f)
    common, (d_b, d_x) = scale(b_space.dist, x_space.dist)

    x_glue = [d_x[s] for s in ia]
    b_to_x = int_product([[row[t] for t in fa] for row in d_b], x_glue,
                         x_space.n)
    x_to_b = int_product([[row[s] for s in ia] for row in d_x],
                         [d_b[t] for t in fa], b_space.n)
    detour = int_product([[row[t] for t in fa] for row in x_to_b], x_glue,
                         x_space.n)
    x_to_x = [list(map(min, direct, via)) for direct, via in zip(d_x, detour)]

    bx, iota_b, iota_x = coproduct(b_space, x_space)
    rows = [[*d, *m] for d, m in zip(d_b, b_to_x)]
    rows += [[*m, *d] for m, d in zip(x_to_b, x_to_x)]
    gamma = Submetric(bx, IntMatrix(common, rows))
    proj = quotient_by_submetric(gamma)
    square = Square(left=f, top=i,
                    bottom=compose(iota_b, proj), right=compose(iota_x, proj))
    return PushoutResult(square=square, gamma=gamma)


def _glue_and_close(i, f, closed):
    """Closure of a closed matrix on B + X after adding zero-cost arcs
    between f(a) and i(a), both ways, for every glue point a.

    As the matrix is closed, only the arcs' endpoints, at most 2|A|
    points, are relaxed through (minplus_closure's pivots).
    """
    nb = f.target.n
    den, (cost,) = scale(closed)
    cost = [list(row) for row in cost]
    ends = set()
    for p, q in zip(target_indices(f), target_indices(i)):
        cost[p][nb + q] = cost[nb + q][p] = 0
        ends.update((p, nb + q))
    return minplus_closure(IntMatrix(den, cost), sorted(ends))


def pushout_closure_oracle(i, f):
    """Independent recomputation of the pushout submetric.

    Start from the coproduct metric on B + X, glue f(a) to i(a) at zero
    cost and saturate with the min-plus closure, relaxed through the
    glue points only, since the coproduct metric is closed.  Must agree
    exactly with the formula route, which it never calls.  A, B and X
    must be metrics, not checked again here, as for the formula.
    """
    _check_pushout_inputs(i, f)
    bx, _, _ = coproduct(f.target, i.target)
    return Submetric(bx, _glue_and_close(i, f, bx.dist))


def cokernel_pair(i):
    """The two legs of the pushout of an embedding along itself."""
    result = pushout_along_embedding(i, i)
    return result.leg_b, result.leg_x, result.apex


def verify_pushout_universal(result):
    """Decide the universal property of a pushout square exactly.

    A cocone under B <- A -> X is one non-expansive map h out of B + X
    with h(f(a)) = h(i(a)) for every glue point a.  Each cocone counts
    only as its kernel metric k_h(p, q) = d_T(h(p), h(q)).  A mediator u
    with u . leg = h exists iff k_h <= K pointwise, K(p, q) = d_apex(leg
    p, leg q) or 0 where leg p = leg q.  That is exact as the legs are
    jointly surjective (checked first), so u is forced and non-expansive
    iff k_h <= K, and as every cocone target is separated, so the 0s of
    K make u well defined.

    Every k_h is a metric below d_{B+X} that vanishes both ways at each
    glue pair, so it lies below the min-plus closure of d_{B+X} with
    those entries set to 0.  That closure is itself the kernel of a
    cocone, the projection onto its quotient, so every cocone has a
    mediator iff this greatest one does, and one comparison decides.
    """
    sq, apex = result.square, result.apex
    if set(sq.bottom.assignment + sq.right.assignment) != set(apex.labels):
        return False  # an unreachable apex point breaks uniqueness
    legs = target_indices(sq.bottom) + target_indices(sq.right)
    d = apex.dist.rows
    bound = IntMatrix(apex.dist.den, [[0 if p == q else d[p][q] for q in legs]
                                      for p in legs])
    # Built from the span, not from result.gamma, so the check does not
    # trust the result it checks.
    i, f = sq.top, sq.left
    bx, _, _ = coproduct(f.target, i.target)
    return not any(pointwise(bound, _glue_and_close(i, f, bx.dist), lt))
