"""Quotient objects encoded internally: kernel metrics, submetrics below
the ambient metric, quotient-by-submetric, and the antitone duality
between surjections out of X and submetrics on X.  The entries of a
submetric above d, and of a kernel metric above d_source, are listed
by spaces.excess_violations, the writer check_nonexpansive uses too.
Submetric itself lives in spaces, beside the other records a workspace
holds, and is the same class here."""

from __future__ import annotations

from operator import gt

from .maps import is_surjective, pulled_metric
from .minplus import pointwise
from .spaces import (FinMap, Submetric, check_square, excess_violations,
                     is_separated, metric_violations,
                     quotient_by_zero_classes, raise_first_violation)


def validate_submetric(base, gamma):
    """Metric-axiom and below-d violations of the IntMatrix gamma on base."""
    check_square(gamma, base.n, "submetric matrix", "base")
    labels = base.labels
    return metric_violations(labels, gamma) + excess_violations(
        "above-ambient", labels, gamma, base.dist)


def kernel_metric(f):
    """kappa_f(x, y) = d_target(f(x), f(y)); below d_source by
    non-expansiveness, which is checked on that pulled matrix itself."""
    pulled = pulled_metric(f)
    raise_first_violation("map is not non-expansive", excess_violations(
        "expansive", f.source.labels, pulled, f.source.dist))
    return Submetric(f.source, pulled)


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
    return not any(pointwise(kernel_metric(g).gamma, kernel_metric(f).gamma,
                             gt))


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
