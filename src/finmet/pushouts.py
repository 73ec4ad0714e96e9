"""Explicit pushouts along embeddings.

The pushout of B <- A -> X (with A -> X an embedding and A -> B
non-expansive) is the separation quotient of B + X under a submetric
gamma whose mixed blocks are min-plus products over the glue points,
and whose X-X block takes the detour through B at the distinct glue
images f(A) only, with the B->X rows there.  Every pushout goes through
this one formula, cokernel pairs included.
An independent oracle recomputes gamma as the coproduct metric glued
at the glue points (glue, a shortest-path closure), so the two routes
can be compared exactly.

The universal property is decided exactly, with no sampling, by one
matrix equality: the apex metric read along the legs must be the glued
closure of B + X, the kernel of the greatest cocone, and the apex must
be separated.  A square whose legs stretch or disagree on A, so that
it is no cocone, is refused.
"""

from __future__ import annotations

from .limits import Square, coproduct
from .maps import (compose, is_embedding, require_nonexpansive,
                   target_indices)
from .minplus import IntMatrix, int_product, minplus_closure, scale
from .spaces import Frozen, Submetric, is_separated, quotient_by_zero_classes


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
    for sp in (i.target, f.target):  # A is separated if X is
        if not is_separated(sp):
            raise ValueError("pushout requires separated spaces")


def pushout_along_embedding(i, f):
    """Pushout of f: A -> B along the embedding i: A -> X.

    gamma on B + X has four blocks.  B-B is d_B.  The mixed blocks route
    through one glue point, each a min-plus product over A:
    B->X = d_B[:, fA] * d_X[iA, :] and X->B = d_X[:, iA] * d_B[fA, :].
    X-X is the pointwise min of d_X and the detour X->B->X through the
    distinct glue images F: the X->B block on the F columns times the
    B->X rows at F, with minima from d_X.  As min over t in F of
    d_B(fa, t) + d_B(t, fa') is d_B(fa, fa') by B's triangle inequality,
    that is the detour through every glue point, in |F| <= |A| terms.
    The apex is the zero-class quotient of B + X, separated as B and X
    are.

    A, B and X must be metrics.  That is not checked again here, as
    every caller has checked it (Workspace.get, the generators).
    """
    _check_pushout_inputs(i, f)
    x_space, b_space = i.target, f.target
    ia, fa = target_indices(i), target_indices(f)
    common, (d_b, d_x) = scale(b_space.dist, x_space.dist)

    b_to_x = int_product([[row[t] for t in fa] for row in d_b],
                         [d_x[s] for s in ia], x_space.n)
    x_to_b = int_product([[row[s] for s in ia] for row in d_x],
                         [d_b[t] for t in fa], b_space.n)
    hit = sorted(set(fa))  # F
    x_to_x = int_product([[row[t] for t in hit] for row in x_to_b],
                         [b_to_x[t] for t in hit], x_space.n, d_x)

    bx, iota_b, iota_x = coproduct(b_space, x_space)
    rows = [[*d, *m] for d, m in zip(d_b, b_to_x)]
    rows += [[*m, *d] for m, d in zip(x_to_b, x_to_x)]
    gamma = Submetric(bx, IntMatrix(common, rows))
    proj = quotient_by_zero_classes(bx, gamma.gamma)
    square = Square(left=f, top=i,
                    bottom=compose(iota_b, proj), right=compose(iota_x, proj))
    return PushoutResult(square=square, gamma=gamma)


def glue(space, pairs):
    """The least metric below d on space that is 0 both ways at each
    index pair (p, q), as a Submetric on space.  As d is closed, only
    the pairs' points are relaxed through (minplus_closure's pivots)."""
    cost = [list(row) for row in space.dist.rows]
    for p, q in pairs:
        cost[p][q] = cost[q][p] = 0
    ends = sorted({x for pair in pairs for x in pair})
    return Submetric(space, minplus_closure(IntMatrix(space.dist.den, cost),
                                            ends))


def _glued_coproduct(i, f):
    """glue on B + X at each glue pair (f(a), i(a)), for any span."""
    bx, _, _ = coproduct(f.target, i.target)
    nb = f.target.n
    return glue(bx, [(p, nb + q) for p, q in zip(target_indices(f),
                                                 target_indices(i))])


def pushout_closure_oracle(i, f):
    """Independent recomputation of the pushout submetric: the coproduct
    metric on B + X glued at each pair (f(a), i(a)).  Must agree exactly
    with the formula route, which it never calls.  A, B and X must be
    metrics, not checked again here, as for the formula.
    """
    _check_pushout_inputs(i, f)
    return _glued_coproduct(i, f)


def cokernel_pair(i):
    """The two legs of the pushout of an embedding along itself."""
    result = pushout_along_embedding(i, i)
    return result.leg_b, result.leg_x, result.apex


def verify_pushout_universal(result):
    """Decide the universal property of a pushout square exactly.

    A cocone under B <- A -> X is one non-expansive map h out of B + X
    with h(f(a)) = h(i(a)) for every glue point a.  Each cocone counts
    only as its kernel metric k_h(p, q) = d_T(h(p), h(q)), a metric
    below d_{B+X} that vanishes both ways at each glue pair, so it lies
    below G, B + X glued at those pairs (glue).  G is itself the kernel
    of a cocone, the projection onto its quotient.

    Let K(p, q) = d_apex(leg p, leg q).  If the square's own legs form a
    cocone, K is its kernel, so K <= G.  With jointly surjective legs
    and a separated apex (checked first), a mediator u with u . leg = h
    is forced, and it is well defined (cocone targets are separated)
    and non-expansive iff k_h <= K, so every cocone has one iff G <= K.
    The square is the pushout exactly when K = G, one comparison of two
    reduced IntMatrix values: K = G also makes the apex a metric, as
    every apex distance is an entry of K, and the legs a cocone, as G
    is one's kernel and the apex is separated.  A square whose legs
    stretch or disagree on A, or whose apex has a nonzero diagonal
    entry, is refused.  Any span is decided, embedding or not.
    """
    sq, apex = result.square, result.apex
    if set(sq.bottom.assignment + sq.right.assignment) != set(apex.labels):
        return False  # an unreachable apex point breaks uniqueness
    if not is_separated(apex):
        return False  # else K = G need not make the legs agree on A
    legs = target_indices(sq.bottom) + target_indices(sq.right)
    # Built from the span, not from result.gamma, so the check does not
    # trust the result it checks.
    return apex.dist.sub(legs, legs) == _glued_coproduct(sq.top, sq.left).gamma
