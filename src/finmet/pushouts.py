"""Explicit pushouts along embeddings.

The pushout of B <- A -> X (with A -> X an embedding and A -> B
non-expansive) is the separation quotient of B + X under a submetric
gamma whose mixed blocks are min-plus products over the glue points.
Every pushout goes through this one formula, cokernel pairs included.
An independent shortest-path closure oracle recomputes gamma from the
raw gluing costs so the two routes can be compared exactly.

Sampled cocones check the universal property by their kernel metrics k
on B + X: a mediator out of the apex exists iff k <= K, the apex metric
read along the legs with 0 where two legs meet.  This is exact when the
legs are jointly surjective and every cocone target is separated.
"""

from __future__ import annotations

import random
from operator import gt, lt

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
    """
    _check_pushout_inputs(i, f)
    a_space, x_space, b_space = i.source, i.target, f.target
    ia = [x_space.index(i(a)) for a in a_space.labels]
    fa = [b_space.index(f(a)) for a in a_space.labels]
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


def _glue_and_close(i, f, costs):
    """Closure of a cost matrix on B + X after adding zero-cost arcs
    between f(a) and i(a), both ways, for every glue point a."""
    nb = f.target.n
    den, (cost,) = scale(costs)
    cost = [list(row) for row in cost]
    for a in f.source.labels:
        p = f.target.index(f(a))
        q = nb + i.target.index(i(a))
        cost[p][q] = 0
        cost[q][p] = 0
    return minplus_closure(IntMatrix(den, cost))


def pushout_closure_oracle(i, f):
    """Independent recomputation of the pushout submetric.

    Start from the coproduct metric on B + X, glue f(a) to i(a) at zero
    cost and saturate with the all-pairs min-plus closure.  Must agree
    exactly with the formula route, which it never calls.
    """
    _check_pushout_inputs(i, f)
    bx, _, _ = coproduct(f.target, i.target)
    return Submetric(bx, _glue_and_close(i, f, bx.dist))


def cokernel_pair(i):
    """The two legs of the pushout of an embedding along itself."""
    result = pushout_along_embedding(i, i)
    return result.leg_b, result.leg_x, result.apex


def _cocone_kernels(i, f, trials, seed):
    """The kernel metrics on B + X of the sampled cocones, in order: the
    closure-oracle pushout's, then up to trials - 1 drawn glued costs and
    raw index maps that merge each glue pair and do not expand."""
    from .harness import GenConfig, gen_metric, sample_cost_below

    # Built from the span, not from result.gamma, so the check does not
    # trust the result it checks.
    bx, _, _ = coproduct(f.target, i.target)
    glue = [(f.target.index(f(a)), f.target.n + i.target.index(i(a)))
            for a in f.source.labels]
    rng = random.Random(seed)
    yield _glue_and_close(i, f, bx.dist)
    checked, attempts = 1, 0
    while checked < trials and attempts < trials * 200:
        attempts += 1
        if rng.random() < 0.5:
            kernel = _glue_and_close(i, f, sample_cost_below(bx, rng))
        else:
            t_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                           max_points=rng.randint(1, 4)))
            h = [rng.choice(range(t_space.n)) for _ in bx.labels]
            if any(h[p] != h[q] for p, q in glue) or any(
                    pointwise(t_space.dist, bx.dist, gt, h)):
                continue
            kernel = t_space.dist.sub(h, h)
        checked += 1
        yield kernel


def _refusals(result, trials, seed):
    """Whether each sampled cocone has no mediator, in order and lazily:
    whether its kernel metric fails to lie below K."""
    sq, apex = result.square, result.apex
    legs = target_indices(sq.bottom) + target_indices(sq.right)
    d = apex.dist.rows
    bound = IntMatrix(apex.dist.den, [[0 if p == q else d[p][q] for q in legs]
                                      for p in legs])
    for kernel in _cocone_kernels(sq.top, sq.left, trials, seed):
        yield any(pointwise(bound, kernel, lt))


def verify_pushout_universal(result, trials=100, seed=0):
    """Sample cocones and check the mediating-morphism property.

    A cocone under B <- A -> X is one non-expansive map h out of B + X
    with h(f(a)) = h(i(a)) for every glue point a.  Cocones come from
    three sources: the closure-oracle pushout itself (always first, so a
    corrupted apex is refuted deterministically), quotients of B + X
    along random glued cost grids, and rejection-sampled raw
    assignments into small random targets.

    Each cocone counts only as its kernel metric k_h(p, q) = d_T(h(p),
    h(q)).  A mediator u with u . leg = h exists iff k_h <= K pointwise,
    K(p, q) = d_apex(leg p, leg q) or 0 where leg p = leg q.  That is
    exact as the legs are jointly surjective (checked first), so u is
    forced and non-expansive iff k_h <= K, and as every cocone target is
    separated, so the 0s of K make u well defined.
    """
    sq = result.square
    if set(sq.bottom.assignment + sq.right.assignment) != set(
            result.apex.labels):
        return False  # an unreachable apex point breaks uniqueness
    return not any(_refusals(result, trials, seed))
