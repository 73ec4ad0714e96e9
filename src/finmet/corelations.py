"""Binary corelations on X, encoded as block submetrics on X + X.

A corelation is a surjection out of X + X; under the quotient/submetric
duality it is a metric on X + X below the coproduct metric, stored here
as four X-indexed blocks.  The reflexive/symmetric/transitive predicates
are the dualized relation laws; every equivalence corelation is the
cokernel-pair corelation of its zero locus.
"""

from __future__ import annotations

from operator import gt, ne

from .limits import coproduct, copair, summand_label
from .maps import is_surjective
from .minplus import (IntMatrix, equals_own_square, int_product, pointwise,
                      scale)
from .quotients import kernel_metric, validate_submetric
from .spaces import Frozen, Violation, is_separated


class BlockMetric(Frozen):
    """blocks[i][j][x][y] encodes the distance from (x, i) to (y, j)."""

    __slots__ = ("base", "g00", "g01", "g10", "g11")

    def __init__(self, base, g00, g01, g10, g11):
        set_ = object.__setattr__
        set_(self, "base", base)
        n = base.n
        for name, block in zip(self.__slots__[1:], (g00, g01, g10, g11)):
            block = IntMatrix.of(block)
            if not block.is_square(n):
                raise ValueError("block %s shape does not match base" % name)
            set_(self, name, block)

    def block(self, i, j):
        return getattr(self, "g%d%d" % (i, j))

    def as_matrix(self):
        """The full matrix on X + X (summand 0 first)."""
        common, (g00, g01, g10, g11) = scale(
            self.g00, self.g01, self.g10, self.g11)
        rows = [[*r0, *r1] for r0, r1 in zip(g00, g01)]
        rows += [[*r0, *r1] for r0, r1 in zip(g10, g11)]
        return IntMatrix(common, rows)

    @classmethod
    def from_matrix(cls, base, full):
        """The block metric of a matrix on X + X (summand 0 first); the
        inverse of as_matrix."""
        full = IntMatrix.of(full)
        n = base.n
        if not full.is_square(2 * n):
            raise ValueError("matrix shape does not match X + X")
        halves = range(n), range(n, 2 * n)
        return cls(base, *(full.sub(rows, cols)
                           for rows in halves for cols in halves))


def validate_blockmetric(bm):
    """Violations of the submetric contract against the coproduct metric on X+X."""
    space, _, _ = coproduct(bm.base, bm.base)
    return validate_submetric(space, bm.as_matrix())


def corelation_from_cospan(q0, q1):
    """The block metric of a cospan q0, q1: X -> S, via the kernel metric
    of the copairing X + X -> S; the copairing must be surjective."""
    if q0.source != q1.source or q0.target != q1.target:
        raise ValueError("corelation needs parallel morphisms")
    x_space = q0.source
    xx, _, _ = coproduct(x_space, x_space)
    folded = copair(q0, q1, xx)
    if not is_surjective(folded):
        raise ValueError("cospan is not jointly surjective, hence not a corelation")
    return BlockMetric.from_matrix(x_space, kernel_metric(folded).gamma)


def _gamma(bm, x, i, y, j):
    """The name and the value token of gamma((x, i), (y, j)); x, y are
    indices."""
    labels = bm.base.labels
    return ("gamma((%s,%d),(%s,%d))" % (labels[x], i, labels[y], j),
            bm.block(i, j).token(x, y))


def reflexive_witness(bm):
    """The first d(x, y) > gamma((x, i), (y, j)), as a non-reflexive
    Violation at (x, i) and (y, j); None when there is none."""
    labels, dist = bm.base.labels, bm.base.dist
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for x, y in pointwise(dist, bm.block(i, j), gt):
            name, value = _gamma(bm, x, i, y, j)
            return Violation("non-reflexive", (
                summand_label(i, labels[x]), summand_label(j, labels[y])),
                "d(%s,%s) = %s > %s = %s" % (
                    labels[x], labels[y], dist.token(x, y), value, name))
    return None


def is_reflexive(bm):
    """d(x, y) <= every block entry; dual of relation reflexivity."""
    return reflexive_witness(bm) is None


def symmetric_witness(bm):
    """The first gamma((x, i), (y, j)) != gamma((x, 1-i), (y, 1-j)) in
    blocks 00 then 01, as a non-symmetric Violation at (x, i) and
    (y, j); None when there is none."""
    labels = bm.base.labels
    for i, j in ((0, 0), (0, 1)):
        for x, y in pointwise(bm.block(i, j), bm.block(1 - i, 1 - j), ne):
            (name, value), (name2, value2) = (
                _gamma(bm, x, i, y, j), _gamma(bm, x, 1 - i, y, 1 - j))
            return Violation("non-symmetric", (
                summand_label(i, labels[x]), summand_label(j, labels[y])),
                "%s = %s != %s = %s" % (name, value, value2, name2))
    return None


def is_symmetric(bm):
    """Invariance under swapping both summand indices."""
    return symmetric_witness(bm) is None


def is_transitive(bm):
    """Cross blocks equal to their own min-plus square.

    Only stated for reflexive block metrics; a non-reflexive input is an
    error rather than a False.
    """
    if not is_reflexive(bm):
        raise ValueError("transitivity is only defined for reflexive inputs")
    return _cross_blocks_idempotent(bm)


def _cross_blocks_idempotent(bm):
    return equals_own_square(bm.g01) and equals_own_square(bm.g10)


def is_equivalence(bm):
    # Reflexivity is checked once, not again as transitivity's precondition.
    return (is_reflexive(bm) and is_symmetric(bm)
            and _cross_blocks_idempotent(bm))


def gamma_from_subset(x_space, subset):
    """The block metric with cross distances routed through the subset at
    zero crossing cost; the cokernel-pair corelation of the inclusion."""
    if not is_separated(x_space):
        raise ValueError("base must be separated")
    subset = tuple(subset)
    idx = sorted(x_space.index(lab) for lab in subset)
    if len(set(idx)) != len(subset):
        raise ValueError("duplicate labels in subset")
    common, (d,) = scale(x_space.dist)
    cross = IntMatrix(common, int_product(
        [[row[a] for a in idx] for row in d], [d[a] for a in idx],
        x_space.n))
    return BlockMetric(base=x_space, g00=x_space.dist, g01=cross, g10=cross,
                       g11=x_space.dist)


def zero_locus(bm):
    """Points whose cross self-distance vanishes; requires an equivalence."""
    if not is_equivalence(bm):
        raise ValueError("zero locus is only defined for equivalences")
    rows = bm.g01.rows
    return tuple(lab for a, lab in enumerate(bm.base.labels)
                 if rows[a][a] == 0)


def is_effective(bm, locus=None):
    """Exact equality with the subset block metric of the zero locus.

    Every valid equivalence is effective; the predicate exists so that
    theorem can be asserted exhaustively.  A caller that already holds
    zero_locus(bm) passes it as locus, so the equivalence is not
    checked again.
    """
    if locus is None:
        locus = zero_locus(bm)  # raises on non-equivalence input
    return bm == gamma_from_subset(bm.base, locus)
