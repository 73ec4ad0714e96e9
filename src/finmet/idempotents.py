"""The min-plus idempotence lemma as standalone checkable operations.

A cost matrix (no metric axioms, nonzero diagonal allowed) that equals
its own min-plus square factors through its zero-diagonal points: every
finite entry is attained by a path routed through a point with zero
self-cost.

The relational corollary is the lemma on the two values {0, inf}.  A
relation R is held as its cost matrix, 0 where x R y and INF elsewhere:
R is idempotent exactly when that matrix is, and a density witness of
x R y is the lemma's zero-diagonal witness of the pair (x, y).
CostMatrix itself lives in spaces, beside the other records a workspace
holds, and is the same class here.
"""

from __future__ import annotations

from math import inf

from .minplus import equals_own_square
from .spaces import CostMatrix, Frozen, label_index


def is_idempotent(cm):
    """Whether rho equals its min-plus square.

    Decided through the zero-diagonal points Z, as the lemma allows
    (minplus.equals_own_square): rho must equal rho[:, Z] * rho[Z, :],
    and no point outside Z may route two points of Z below their entry.
    Both run on rho's own ints over its denominator, which is the
    square's denominator too, so equal ints mean equal entries.
    """
    return equals_own_square(cm.rho)


class FactorReport(Frozen):
    """Witness table for routing an idempotent matrix through its
    zero-diagonal points: zero_diagonal holds the labels with
    rho(a, a) = 0, witnesses maps (x, y) to a label or None, and
    failures lists the finite pairs with no witness."""

    __slots__ = ("zero_diagonal", "witnesses", "failures")

    def __init__(self, zero_diagonal, witnesses=None, failures=()):
        set_ = object.__setattr__
        set_(self, "zero_diagonal", zero_diagonal)
        set_(self, "witnesses", {} if witnesses is None else witnesses)
        set_(self, "failures", failures)

    @property
    def ok(self):
        return not self.failures


def factor_through_zero_diagonal(cm):
    """For each pair with finite cost, a zero-diagonal point attaining it.

    Pairs with infinite cost are vacuous: rho = rho * rho makes every
    route between them infinite.  Ties break to the least point index.
    """
    if not is_idempotent(cm):
        raise ValueError("input is not min-plus idempotent")
    labels = cm.labels
    rho = cm.rho.rows
    a_idx = [i for i, row in enumerate(rho) if row[i] == 0]
    witnesses = {}
    failures = []
    for x, row in enumerate(rho):
        for y, target in enumerate(row):
            pair = (labels[x], labels[y])
            if target == inf:
                witnesses[pair] = None
                continue
            for a in a_idx:
                # row[a] + rho[a][y] == target, with no sum taken of inf.
                if row[a] <= target and rho[a][y] == target - row[a]:
                    witnesses[pair] = labels[a]
                    break
            else:
                failures.append(pair)
    return FactorReport(zero_diagonal=tuple(cm.labels[i] for i in a_idx),
                        witnesses=witnesses,
                        failures=tuple(failures))


def relation_density_witness(relation, x, y):
    """For an idempotent relation, a CostMatrix over {0, INF}, with x R y:
    the point a of least index with x R a, a R a, a R y.

    That is the zero-diagonal witness of (x, y), which the lemma
    guarantees for every related pair.
    """
    try:
        report = factor_through_zero_diagonal(relation)
    except ValueError:
        raise ValueError("relation is not idempotent") from None
    i = label_index(relation.labels, x)
    j = label_index(relation.labels, y)
    if relation.rho.rows[i][j] != 0:
        raise ValueError("pair is not related")
    return report.witnesses[(x, y)]
