"""Explicit pushouts along embeddings.

The pushout of B <- A -> X (with A -> X an embedding and A -> B
non-expansive) is the separation quotient of B + X under a submetric
gamma whose mixed blocks are min-plus products over the glue points.
Every pushout goes through this one formula, cokernel pairs included.
An independent shortest-path closure oracle recomputes gamma from the
raw gluing costs so the two routes can be compared exactly.
"""

from __future__ import annotations

import random

from .limits import Square, coproduct
from .maps import (FinMap, compose, is_embedding, is_nonexpansive,
                   require_nonexpansive)
from .minplus import IntMatrix, int_product, minplus_closure, scale
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
    # A detour sums at most three finite entries, so big marks INF
    # through both products.
    common, big, (d_b, d_x) = scale(b_space.dist, x_space.dist, terms=3)

    x_glue = [d_x[s] for s in ia]
    b_to_x = int_product([[row[t] for t in fa] for row in d_b], x_glue,
                         x_space.n, big)
    x_to_b = int_product([[row[s] for s in ia] for row in d_x],
                         [d_b[t] for t in fa], b_space.n, big)
    detour = int_product([[row[t] for t in fa] for row in x_to_b], x_glue,
                         x_space.n, big)
    x_to_x = [list(map(min, direct, via)) for direct, via in zip(d_x, detour)]

    bx, iota_b, iota_x = coproduct(b_space, x_space)
    rows = [d + m for d, m in zip(d_b, b_to_x)]
    rows += [m + d for m, d in zip(x_to_b, x_to_x)]
    gamma = Submetric(bx, IntMatrix.from_scaled(common, rows, big))
    proj = quotient_by_submetric(gamma)
    square = Square(left=f, top=i,
                    bottom=compose(iota_b, proj), right=compose(iota_x, proj))
    return PushoutResult(square=square, gamma=gamma)


def _glue_and_close(i, f, costs):
    """Closure of a cost matrix on B + X after adding zero-cost arcs
    between f(a) and i(a), both ways, for every glue point a."""
    nb = f.target.n
    costs = IntMatrix.of(costs)
    cost = [list(row) for row in costs.rows]
    for a in f.source.labels:
        p = f.target.index(f(a))
        q = nb + i.target.index(i(a))
        cost[p][q] = 0
        cost[q][p] = 0
    return minplus_closure(IntMatrix(costs.den, cost))


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


def _mediator_exists(result, j, g):
    """Mediator out of the apex for the cocone (j out of B, g out of X).

    The legs into the apex are meant to be jointly surjective, so any
    mediator is forced pointwise; this checks it is well-defined and
    non-expansive.  The triangles commute by construction.
    """
    sq = result.square
    apex = result.apex
    mediator = {}
    for src_map, cocone in ((sq.bottom, j), (sq.right, g)):
        for lab, apex_lab in zip(src_map.source.labels, src_map.assignment):
            want = cocone(lab)
            if mediator.setdefault(apex_lab, want) != want:
                return False  # cocone separates points the apex merged
    u = FinMap(apex, j.target, tuple(mediator[lab] for lab in apex.labels))
    return is_nonexpansive(u)


def _glued_quotient_cocone(result, costs):
    """Cocone obtained by quotienting B + X along a cost matrix that glues
    f(a) to i(a); always commutes and is non-expansive by construction."""
    f, i = result.square.left, result.square.top
    bx, iota_b, iota_x = coproduct(f.target, i.target)
    proj = quotient_by_submetric(Submetric(bx, _glue_and_close(i, f, costs)))
    return compose(iota_b, proj), compose(iota_x, proj)


def verify_pushout_universal(result, trials=100, seed=0):
    """Sample commuting cocones and check the mediating-morphism property.

    Cocones come from three sources: the closure-oracle pushout itself
    (always first, so a corrupted apex is refuted deterministically),
    quotients of B + X along random glued cost grids, and rejection-
    sampled raw assignments into small random targets.
    """
    from .harness import GenConfig, gen_metric, sample_cost_below

    sq = result.square
    f, i = sq.left, sq.top
    apex = result.apex
    hit = set(sq.bottom.assignment) | set(sq.right.assignment)
    if hit != set(apex.labels):
        return False  # an unreachable apex point breaks uniqueness

    rng = random.Random(seed)
    b_space, x_space = f.target, i.target
    bx, _, _ = coproduct(b_space, x_space)

    # Trial 0: the oracle pushout as a competing cocone.
    j, g = _glued_quotient_cocone(result, bx.dist)
    if not _mediator_exists(result, j, g):
        return False

    checked = 1
    attempts = 0
    max_attempts = trials * 200
    while checked < trials and attempts < max_attempts:
        attempts += 1
        if rng.random() < 0.5:
            j, g = _glued_quotient_cocone(
                result, sample_cost_below(bx, rng))
        else:
            t_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                           max_points=rng.randint(1, 4)))
            j = FinMap(b_space, t_space,
                       tuple(rng.choice(t_space.labels) for _ in b_space.labels))
            g = FinMap(x_space, t_space,
                       tuple(rng.choice(t_space.labels) for _ in x_space.labels))
            if not (is_nonexpansive(j) and is_nonexpansive(g)):
                continue
            if compose(f, j).assignment != compose(i, g).assignment:
                continue
        checked += 1
        if not _mediator_exists(result, j, g):
            return False
    return True
