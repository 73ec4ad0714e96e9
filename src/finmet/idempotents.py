"""The min-plus idempotence lemma as standalone checkable operations.

A cost matrix (no metric axioms, nonzero diagonal allowed) that equals
its own min-plus square factors through its zero-diagonal points: every
finite entry is attained by a path routed through a point with zero
self-cost.

The relational corollary is the lemma on the two values {0, inf}.  A
relation R is held as its cost matrix, 0 where x R y and INF elsewhere:
R is idempotent exactly when that matrix is, and a density witness of
x R y is the lemma's zero-diagonal witness of the pair (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .minplus import IntMatrix, minplus_matmul, scale
from .spaces import freeze_labelled_square, label_index


@dataclass(frozen=True)
class CostMatrix:
    labels: tuple
    rho: IntMatrix

    def __post_init__(self):
        freeze_labelled_square(self, "rho", "cost matrix")


def is_idempotent(cm):
    return minplus_matmul(cm.rho, cm.rho) == cm.rho


@dataclass(frozen=True)
class FactorReport:
    """Witness table for routing an idempotent matrix through its
    zero-diagonal points."""

    zero_diagonal: tuple                 # labels with rho(a, a) = 0
    witnesses: dict = field(default_factory=dict)  # (x, y) -> label or None
    failures: tuple = ()                 # finite pairs with no witness

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
    _, big, (rho,) = scale(cm.rho, terms=2)
    a_idx = [i for i, row in enumerate(rho) if row[i] == 0]
    witnesses = {}
    failures = []
    for x, row in enumerate(rho):
        for y, target in enumerate(row):
            pair = (labels[x], labels[y])
            if target >= big:
                witnesses[pair] = None
                continue
            for a in a_idx:
                if row[a] + rho[a][y] == target:
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
