"""Deterministic random generators and brute-force oracles.

Everything is a pure function of an explicit seed.  The min-plus closure
doubles as the universal repair step: any sampled zero-diagonal cost
grid closes to a valid metric, and closing a grid capped below an
ambient metric stays below it.
"""

from __future__ import annotations

import itertools
import random
from math import inf

from .maps import FinMap, compose, is_nonexpansive
from .minplus import IntMatrix, minplus_closure, scale
from .quotients import Submetric, quotient_by_submetric
from .spaces import FinSpace, Frozen, zero_classes

# The value grid 0, 1/2, 1, 2, inf, as one row of ints over denominator 2.
_GRID = IntMatrix(2, [(0, 1, 2, 4, inf)])
MAP_ATTEMPTS = 50  # random draws before the constant-map fallback
ISO_CAP = 7        # brute_iso_check's largest space: 7! permutations
MEDIATOR_CAP = 4096  # enumerate_mediators' largest raw search space


class GenConfig(Frozen):
    __slots__ = ("seed", "max_points")

    def __init__(self, seed=0, max_points=4):
        if max_points < 0:
            raise ValueError("max_points must be >= 0")
        set_ = object.__setattr__
        set_(self, "seed", seed)
        set_(self, "max_points", max_points)


def gen_metric(cfg):
    """A valid separated space on up to cfg.max_points points.

    Sample a grid matrix, zero the diagonal and repair it with the
    min-plus closure.  The space is the closure restricted to the first
    point of each zero class, which separates it; its points are
    labelled p0, p1, ...
    """
    rng = random.Random(cfg.seed)
    n = cfg.max_points
    grid = _GRID.rows[0]
    cost = [[0 if i == j else rng.choice(grid) for j in range(n)]
            for i in range(n)]
    closed = minplus_closure(IntMatrix(_GRID.den, cost))
    labels = tuple("p%d" % i for i in range(n))
    classes, _ = zero_classes(closed)
    if len(classes) < n:
        reps = [members[0] for members in classes]
        closed = closed.sub(reps, reps)
    return FinSpace(labels[:len(classes)], closed)


def sample_cost_below(space, rng):
    """A zero-diagonal grid IntMatrix capped pointwise by the space's
    metric."""
    n = space.n
    common, ((grid,), dist) = scale(_GRID, space.dist)
    return IntMatrix(common, [
        [0 if i == j else min(rng.choice(grid), dist[i][j]) for j in range(n)]
        for i in range(n)])


def gen_submetric(space, seed):
    """A valid submetric: sampled below d, then min-plus closed.

    The closure stays below d because d itself is closed.
    """
    cost = sample_cost_below(space, random.Random(seed))
    return Submetric(space, minplus_closure(cost))


def gen_surjection(space, seed):
    """A surjection out of a separated space: the quotient of a sampled
    submetric.  Up to isomorphism every surjection arises this way."""
    return quotient_by_submetric(gen_submetric(space, seed))


def gen_nonexpansive_map(source, target, rng):
    """A non-expansive map by rejection sampling; falls back to a constant
    map (always non-expansive) and returns None only if target is empty."""
    if target.n == 0:
        return FinMap(source, target, ()) if source.n == 0 else None
    for _ in range(MAP_ATTEMPTS):
        f = FinMap(source, target,
                   tuple(rng.choice(target.labels) for _ in source.labels))
        if is_nonexpansive(f):
            return f
    pick = rng.choice(target.labels)
    return FinMap(source, target, tuple(pick for _ in source.labels))


def gen_subset(space, rng):
    """A seed-chosen subset of the space's points."""
    return tuple(lab for lab in space.labels if rng.random() < 0.5)


def enumerate_mediators(source, target, precompose=(), postcompose=()):
    """All non-expansive maps source -> target satisfying the given
    commutation constraints.

    precompose: pairs (j, want) requiring h . j = want (j into source);
    postcompose: pairs (p, want) requiring p . h = want (p out of target).
    Raises when the raw search space exceeds MEDIATOR_CAP.
    """
    if source.n and target.n ** source.n > MEDIATOR_CAP:
        raise ValueError("mediator search space exceeds cap")
    out = []
    for assignment in itertools.product(target.labels, repeat=source.n):
        h = FinMap(source, target, assignment)
        if not is_nonexpansive(h):
            continue
        if any(compose(j, h).assignment != want.assignment
               for j, want in precompose):
            continue
        if any(compose(h, p).assignment != want.assignment
               for p, want in postcompose):
            continue
        out.append(h)
    return out


def brute_iso_check(m1, m2):
    """Label-independent equality: search for a distance-preserving bijection."""
    if m1.n > ISO_CAP or m2.n > ISO_CAP:
        raise ValueError("space too large for brute-force isomorphism search")
    if m1.n != m2.n:
        return False
    return any(m2.dist.sub(p, p) == m1.dist
               for p in itertools.permutations(range(m1.n)))
