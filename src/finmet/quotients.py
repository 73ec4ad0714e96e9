"""Quotient objects encoded internally: kernel metrics, submetrics below
the ambient metric, quotient-by-submetric, and the antitone duality
between surjections out of X and submetrics on X."""

from __future__ import annotations

from .maps import FinMap, is_surjective, require_nonexpansive
from .minplus import IntMatrix, scale
from .spaces import (Frozen, Violation, is_separated, metric_violations,
                     quotient_by_zero_classes)


class Submetric(Frozen):
    """A (possibly non-separated) metric on base's points, pointwise below d."""

    __slots__ = ("base", "gamma")

    def __init__(self, base, gamma):
        gamma = IntMatrix.of(gamma)
        if not gamma.is_square(base.n):
            raise ValueError("submetric matrix shape does not match base")
        set_ = object.__setattr__
        set_(self, "base", base)
        set_(self, "gamma", gamma)

    def value(self, x, y):
        return self.gamma[self.base.index(x)][self.base.index(y)]


def validate_submetric(base, gamma):
    """Metric-axiom violations of gamma plus below-d violations against base."""
    gamma = IntMatrix.of(gamma)
    if not gamma.is_square(base.n):
        raise ValueError("submetric matrix shape does not match base")
    out = metric_violations(base.labels, gamma)
    _, _, (g, d) = scale(gamma, base.dist, terms=1)
    for i, (g_row, d_row) in enumerate(zip(g, d)):
        for j, d_ij in enumerate(d_row):
            if g_row[j] > d_ij:
                out.append(Violation(
                    "above-ambient", (base.labels[i], base.labels[j]),
                    "%s > %s" % (gamma[i][j], base.dist[i][j])))
    return out


def kernel_metric(f):
    """kappa_f(x, y) = d_target(f(x), f(y)); below d_source by non-expansiveness."""
    require_nonexpansive(f)
    idx = [f.target.index(lab) for lab in f.assignment]
    return Submetric(f.source, f.target.dist.sub(idx, idx))


def quotient_by_submetric(sm):
    """The projection onto base/~ where x ~ y iff gamma vanishes both ways.

    The quotient metric between classes is gamma between any
    representatives; the result is separated and the projection is a
    surjective non-expansive map.
    """
    base = sm.base
    if not is_separated(base):
        raise ValueError("quotient base must be separated")
    return quotient_by_zero_classes(base, sm.gamma)


def quotient_leq(f, g):
    """f <= g in the preorder of surjections out of X: some h has h . f = g.

    Equivalently (and checked here) kappa_g <= kappa_f pointwise; the
    brute-force search for h lives in the harness as an oracle.
    """
    if f.source != g.source:
        raise ValueError("quotients must share a source")
    if not (is_surjective(f) and is_surjective(g)):
        raise ValueError("quotient comparison needs surjective morphisms")
    _, _, (kg, kf) = scale(kernel_metric(g).gamma, kernel_metric(f).gamma,
                           terms=1)
    return all(u <= v for g_row, f_row in zip(kg, kf)
               for u, v in zip(g_row, f_row))


def counit_iso(f):
    """The canonical map source/~kappa_f -> target over f; an isomorphism
    for every surjection between separated spaces."""
    if not is_surjective(f):
        raise ValueError("counit is defined for surjections")
    if not (is_separated(f.source) and is_separated(f.target)):
        raise ValueError("counit requires separated source and target")
    p = quotient_by_submetric(kernel_metric(f))
    # Each class maps to the common f-value of its members.
    values = {}
    for x, cls in zip(f.source.labels, p.assignment):
        values.setdefault(cls, f(x))
    return FinMap(p.target, f.target,
                  tuple(values[cls] for cls in p.target.labels))
