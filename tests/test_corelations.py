import itertools
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet import corelations
from finmet.corelations import (BlockMetric, corelation_from_cospan,
                                gamma_from_subset, is_effective,
                                is_equivalence, is_reflexive, is_symmetric,
                                is_transitive, reflexive_witness,
                                symmetric_witness, validate_blockmetric,
                                zero_locus)
from finmet.extarith import INF, fin
from finmet.harness import GenConfig, gen_metric, gen_subset
from finmet.maps import FinMap
from finmet.minplus import IntMatrix
from finmet.pushouts import cokernel_pair
from finmet.spaces import FinSpace, Violation
from test_minplus import matrices, reference_product, separated_metric


def two_point(v=fin(1)):
    return FinSpace(("a", "b"), ((fin(0), v), (v, fin(0))))


def test_block_layout():
    x2 = two_point()
    bm = gamma_from_subset(x2, ("a",))
    assert bm.block(0, 1)[0][1] == fin(1)  # (a,0) to (b,1)
    assert bm.block(0, 1)[1][1] == fin(2)  # (b,0) to (b,1)
    full = bm.as_matrix()
    assert full[0][3] == fin(1)  # (a,0) to (b,1)
    assert BlockMetric.from_matrix(x2, full) == bm
    with pytest.raises(ValueError):
        BlockMetric.from_matrix(x2, x2.dist)


def test_gamma_subset_pinned_values():
    x2 = two_point()
    # through {a}: cross(b,b) = d(b,a) + d(a,b) = 2
    bm_a = gamma_from_subset(x2, ("a",))
    assert bm_a.g01 == IntMatrix.of(((fin(0), fin(1)), (fin(1), fin(2))))
    # through both points the cross block is d itself
    bm_ab = gamma_from_subset(x2, ("a", "b"))
    assert bm_ab.g01 == x2.dist
    # empty subset: summands stay infinitely far apart
    bm_none = gamma_from_subset(x2, ())
    assert bm_none.g01 == IntMatrix.of(((INF, INF), (INF, INF)))


def test_gamma_from_subset_reads_its_subset_once():
    x2 = two_point()
    assert gamma_from_subset(x2, iter(["a"])) == gamma_from_subset(x2, ("a",))
    with pytest.raises(ValueError, match="duplicate labels in subset"):
        gamma_from_subset(x2, iter(["a", "a"]))


def test_gamma_subset_always_equivalence_and_effective():
    rng = random.Random(81)
    for t in range(150):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=5))
        subset = gen_subset(sp, rng)
        bm = gamma_from_subset(sp, subset)
        assert not validate_blockmetric(bm)
        assert is_equivalence(bm)
        assert zero_locus(bm) == subset
        assert is_effective(bm)


def test_zero_locus_matches_cokernel_pair():
    rng = random.Random(83)
    for t in range(100):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        subset = gen_subset(sp, rng)
        bm = gamma_from_subset(sp, subset)
        from finmet.maps import subspace
        sub, incl = subspace(sp, subset)
        q0, q1, _ = cokernel_pair(incl)
        via_cospan = corelation_from_cospan(q0, q1)
        assert via_cospan == bm


def test_reflexive_symmetric_predicates():
    bm = gamma_from_subset(two_point(), ("a",))
    assert is_reflexive(bm) and is_symmetric(bm)
    assert reflexive_witness(bm) is None and symmetric_witness(bm) is None
    # raise one cross entry so the two cross blocks disagree
    g01 = ((fin(0), fin(1)), (fin(1), INF))
    skew = BlockMetric(base=two_point(), g00=two_point().dist, g01=g01,
                       g10=((fin(0), fin(1)), (fin(1), fin(2))),
                       g11=two_point().dist)
    assert not is_symmetric(skew)
    assert symmetric_witness(skew) == Violation(
        "non-symmetric", ("0:b", "1:b"),
        "gamma((b,0),(b,1)) = inf != 2 = gamma((b,1),(b,0))")


def test_transitive_requires_reflexive():
    x2 = two_point()
    zero = tuple(tuple(fin(0) for _ in range(2)) for _ in range(2))
    flat = BlockMetric(base=x2, g00=zero, g01=zero, g10=zero, g11=zero)
    assert reflexive_witness(flat) == Violation(
        "non-reflexive", ("0:a", "0:b"),
        "d(a,b) = 1 > 0 = gamma((a,0),(b,0))")
    with pytest.raises(ValueError):
        is_transitive(flat)


def test_transitivity_counterexample():
    # cross block not closed under min-plus squaring
    x2 = two_point(fin(2))
    g01 = ((fin(2), fin(2)), (fin(2), fin(4)))
    # square of g01 at (b,b): min(2+2, 4+4) = 4 = entry, at (a,a): min(2+2,2+2)=4 > 2
    bm = BlockMetric(base=x2, g00=x2.dist, g01=g01, g10=g01, g11=x2.dist)
    assert is_reflexive(bm)
    assert not is_transitive(bm)
    assert not is_equivalence(bm)


def test_equivalence_checks_reflexivity_once(monkeypatch):
    calls = []
    real = corelations.reflexive_witness
    monkeypatch.setattr(corelations, "reflexive_witness",
                        lambda bm: calls.append(bm) or real(bm))
    x2 = two_point()
    assert is_equivalence(gamma_from_subset(x2, ("a",)))
    assert len(calls) == 1


def test_validate_blockmetric_catches_above_coproduct():
    x2 = two_point()
    diag = ((fin(0), INF), (INF, fin(0)))
    bm = BlockMetric(base=x2, g00=diag, g11=diag,
                     g01=((INF, fin(1)), (INF, INF)),
                     g10=((INF, INF), (fin(1), INF)))
    bad = validate_blockmetric(bm)
    assert any(v.kind == "above-ambient" for v in bad)


def test_equivalences_on_two_points_exhaustive():
    x2 = two_point()
    grid = (fin(0), fin(1, 2), fin(1), fin(2), INF)
    found = 0
    for entries in itertools.product(grid, repeat=4):
        cross = ((entries[0], entries[1]), (entries[2], entries[3]))
        bm = BlockMetric(base=x2, g00=x2.dist, g01=cross, g10=cross,
                         g11=x2.dist)
        if validate_blockmetric(bm) or not is_equivalence(bm):
            continue
        found += 1
        assert is_effective(bm)
    assert found >= 3


def test_cospan_needs_joint_surjectivity():
    x2 = two_point()
    one = FinSpace(("*", "o"), ((fin(0), INF), (INF, fin(0))))
    q = FinMap(x2, one, ("*", "*"))
    with pytest.raises(ValueError):
        corelation_from_cospan(q, q)


# -- the integer block checks against the ExtValue loops --------------------

def points(violation):
    return None if violation is None else violation.points


def reference_reflexive_witness(bm):
    d, n = bm.base.dist, bm.base.n
    for i in (0, 1):
        for j in (0, 1):
            block = bm.block(i, j)
            for x in range(n):
                for y in range(n):
                    if not d[x][y] <= block[x][y]:
                        return ("%d:%s" % (i, bm.base.labels[x]),
                                "%d:%s" % (j, bm.base.labels[y]))
    return None


def reference_symmetric_witness(bm):
    n = bm.base.n
    for i, j in ((0, 0), (0, 1)):
        a, b = bm.block(i, j), bm.block(1 - i, 1 - j)
        for x in range(n):
            for y in range(n):
                if a[x][y] != b[x][y]:
                    return ("%d:%s" % (i, bm.base.labels[x]),
                            "%d:%s" % (j, bm.base.labels[y]))
    return None


@st.composite
def block_metrics(draw):
    """Blocks over a random base; half the time symmetric, and with
    blocks often equal to the base metric, so both verdicts occur."""
    n = draw(st.integers(1, 4))
    base = FinSpace(tuple("x%d" % k for k in range(n)), draw(matrices(n, n)))
    block = st.just(base.dist) | matrices(n, n)
    g00, g01 = draw(block), draw(block)
    if draw(st.booleans()):
        g10, g11 = g01, g00
    else:
        g10, g11 = draw(block), draw(block)
    return BlockMetric(base, g00, g01, g10, g11)


@settings(deadline=None)
@given(block_metrics())
def test_block_checks_match_extvalue_loops(bm):
    assert points(reflexive_witness(bm)) == reference_reflexive_witness(bm)
    assert points(symmetric_witness(bm)) == reference_symmetric_witness(bm)
    assert bm.as_matrix() == IntMatrix.of(
        tuple(r0 + r1 for r0, r1 in zip(bm.g00, bm.g01))
        + tuple(r0 + r1 for r0, r1 in zip(bm.g10, bm.g11)))
    assert BlockMetric.from_matrix(bm.base, bm.as_matrix()) == bm


@settings(deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    separated_metric(n), st.sets(st.integers(0, n - 1)))))
def test_gamma_from_subset_matches_extvalue_product(case):
    dist, subset = case
    x = FinSpace(tuple("x%d" % k for k in range(len(dist))), dist)
    idx = sorted(subset)
    bm = gamma_from_subset(x, [x.labels[a] for a in idx])
    assert bm.g01 == IntMatrix.of(reference_product(
        [[row[a] for a in idx] for row in dist],
        [[dist[a][y] for a in idx] for y in range(x.n)]))
    assert bm.g00 == x.dist and bm.g10 == bm.g01
    assert zero_locus(bm) == tuple(x.labels[a] for a in idx)
