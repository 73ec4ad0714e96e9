"""Quotient objects encoded internally: kernel metrics, submetrics below
the ambient metric, quotient-by-submetric, and the antitone duality
between surjections out of X and submetrics on X."""

from __future__ import annotations

from dataclasses import dataclass

from .maps import FinMap, is_surjective, require_nonexpansive
from .minplus import freeze
from .spaces import (FinSpace, Violation, is_separated, metric_violations,
                     quotient_by_zero_classes)


@dataclass(frozen=True)
class Submetric:
    """A (possibly non-separated) metric on base's points, pointwise below d."""

    base: FinSpace
    gamma: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", freeze(self.gamma))
        n = self.base.n
        if len(self.gamma) != n or any(len(row) != n for row in self.gamma):
            raise ValueError("submetric matrix shape does not match base")

    def value(self, x, y):
        return self.gamma[self.base.index(x)][self.base.index(y)]


def validate_submetric(base, gamma):
    """Metric-axiom violations of gamma plus below-d violations against base."""
    n = base.n
    if len(gamma) != n or any(len(row) != n for row in gamma):
        raise ValueError("submetric matrix shape does not match base")
    out = metric_violations(base.labels, gamma)
    for i in range(n):
        for j in range(n):
            if not gamma[i][j] <= base.dist[i][j]:
                out.append(Violation(
                    "above-ambient", (base.labels[i], base.labels[j]),
                    "%s > %s" % (gamma[i][j], base.dist[i][j])))
    return out


def is_valid_submetric(sm):
    return not validate_submetric(sm.base, sm.gamma)


def kernel_metric(f):
    """kappa_f(x, y) = d_target(f(x), f(y)); below d_source by non-expansiveness."""
    require_nonexpansive(f)
    src, tgt = f.source, f.target
    idx = [tgt.index(lab) for lab in f.assignment]
    gamma = tuple(
        tuple(tgt.dist[idx[i]][idx[j]] for j in range(src.n))
        for i in range(src.n)
    )
    return Submetric(src, gamma)


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
    kf = kernel_metric(f).gamma
    kg = kernel_metric(g).gamma
    n = f.source.n
    return all(kg[i][j] <= kf[i][j] for i in range(n) for j in range(n))


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
