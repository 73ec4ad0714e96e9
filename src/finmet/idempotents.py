"""The min-plus idempotence lemma as standalone checkable operations.

A cost matrix (no metric axioms, nonzero diagonal allowed) that equals
its own min-plus square factors through its zero-diagonal points: every
finite entry is attained by a path routed through a point with zero
self-cost.  The boolean-relation corollary produces density witnesses
for idempotent endorelations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .minplus import IntMatrix, freeze, minplus_matmul, scale
from .spaces import freeze_labelled_square, label_index


@dataclass(frozen=True)
class CostMatrix:
    labels: tuple
    rho: IntMatrix

    def __post_init__(self):
        freeze_labelled_square(self, "rho", "cost matrix")


@dataclass(frozen=True)
class BoolRelation:
    labels: tuple
    rel: tuple

    def __post_init__(self):
        freeze_labelled_square(self, "rel", "relation matrix", freeze)


def minplus_square(cm):
    """T(rho)(x, y) = min_z rho(x, z) + rho(z, y); needs a nonempty base."""
    if not cm.labels:
        raise ValueError("min-plus square needs a nonempty base")
    return CostMatrix(cm.labels, minplus_matmul(cm.rho, cm.rho))


def is_idempotent(cm):
    return minplus_square(cm).rho == cm.rho


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


def bool_compose(rel_a, rel_b):
    """Existential composition of boolean square matrices.

    Row i of the result is the union of the rows k of rel_b with
    rel_a[i][k], each row held as a bitmask.
    """
    n = len(rel_a)
    masks = [sum(1 << j for j, c in enumerate(row) if c) for row in rel_b]
    out = []
    for row in rel_a:
        acc = 0
        for c, mask in zip(row, masks):
            if c:
                acc |= mask
        out.append(tuple([acc >> j & 1 == 1 for j in range(n)]))
    return tuple(out)


def is_bool_idempotent(relation):
    return bool_compose(relation.rel, relation.rel) == relation.rel


def relation_density_witness(relation, x, y):
    """For an idempotent relation with x R y: a point a with
    x R a, a R a, a R y; None if no such point exists (cannot happen on
    valid finite input).  Least index wins."""
    if not is_bool_idempotent(relation):
        raise ValueError("relation is not idempotent")
    i = label_index(relation.labels, x)
    j = label_index(relation.labels, y)
    if not relation.rel[i][j]:
        raise ValueError("pair is not related")
    for k in range(len(relation.labels)):
        if relation.rel[i][k] and relation.rel[k][k] and relation.rel[k][j]:
            return relation.labels[k]
    return None
