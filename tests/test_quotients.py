import os
import random
import sys
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet import maps as maps_module
from finmet import quotients as quotients_module
from finmet.harness import (GenConfig, enumerate_mediators, gen_metric,
                            gen_submetric, gen_surjection)
from finmet.maps import FinMap, compose, is_isomorphism, is_nonexpansive, is_surjective
from finmet.minplus import IntMatrix
from finmet.quotients import (Submetric, counit_iso, kernel_metric,
                              quotient_by_submetric, quotient_leq,
                              validate_submetric)
from finmet.spaces import FinSpace, Violation, is_separated, validate_metric
from reference import (at, fracs, le, maps, matrices, matrix,
                       reference_violations, three_chain, token)


def test_submetric_validation():
    sp = three_chain()
    ok = Submetric(sp, sp.dist)
    assert not validate_submetric(ok.base, ok.gamma)
    above = fracs(sp.dist)
    above[0][1] = 7
    bad = validate_submetric(sp, matrix(above))
    assert any(v.kind == "above-ambient" and v.points == ("u", "v")
               for v in bad)


def test_kernel_metric_pinned():
    sp = three_chain()
    x2 = FinSpace(("a", "b"), IntMatrix(1, [[0, 1], [1, 0]]))
    f = FinMap(sp, x2, ("a", "a", "b"))
    km = kernel_metric(f)
    assert at(km, "u", "v") == 0
    assert at(km, "u", "w") == 1
    assert not validate_submetric(km.base, km.gamma)


def test_kernel_metric_pulls_the_metric_once(monkeypatch):
    # kernel_metric reads the target metric along f once, both to check
    # non-expansiveness and as the submetric; an expansive map still
    # gets require_nonexpansive's error text.
    calls = []
    pulled_metric = maps_module.pulled_metric

    def counted(f):
        calls.append(f)
        return pulled_metric(f)

    monkeypatch.setattr(maps_module, "pulled_metric", counted)
    monkeypatch.setattr(quotients_module, "pulled_metric", counted)
    sp = three_chain()
    x2 = FinSpace(("a", "b"), IntMatrix(1, [[0, 1], [1, 0]]))
    kernel_metric(FinMap(sp, x2, ("a", "a", "b")))
    assert len(calls) == 1
    far = FinSpace(("a", "b"), IntMatrix(1, [[0, 3], [3, 0]]))
    stretch = FinMap(sp, far, ("a", "b", "b"))
    with pytest.raises(ValueError) as raised:
        kernel_metric(stretch)
    assert str(raised.value) == (
        "map is not non-expansive: expansive at (u, v): 3 > 1")


def test_kernel_metric_below_d_random():
    rng = random.Random(51)
    for t in range(100):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        q = gen_surjection(sp, rng.getrandbits(40))
        km = kernel_metric(q)
        assert not validate_submetric(km.base, km.gamma)


def test_quotient_by_submetric_pinned():
    sp = three_chain()
    gamma = IntMatrix(1, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    p = quotient_by_submetric(Submetric(sp, gamma))
    assert p.target.labels == ("[u]", "[w]")
    assert p.assignment == ("[u]", "[u]", "[w]")
    assert at(p.target, "[u]", "[w]") == 1
    assert is_surjective(p) and is_nonexpansive(p)
    assert is_separated(p.target)


def test_quotient_random_properties():
    rng = random.Random(53)
    for t in range(150):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        sm = gen_submetric(sp, rng.getrandbits(40))
        p = quotient_by_submetric(sm)
        assert is_surjective(p) and is_nonexpansive(p)
        assert is_separated(p.target)
        assert validate_metric(p.target) == []
        # the kernel of the projection recovers the submetric
        assert kernel_metric(p).gamma == sm.gamma


def test_counit_iso_random():
    rng = random.Random(57)
    for t in range(150):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        f = gen_surjection(sp, rng.getrandbits(40))
        eps = counit_iso(f)
        assert is_isomorphism(eps)
        p = quotient_by_submetric(kernel_metric(f))
        assert compose(p, eps).assignment == f.assignment


def test_quotient_leq_matches_mediator_search():
    rng = random.Random(59)
    for t in range(100):
        sp = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        f = gen_surjection(sp, rng.getrandbits(40))
        g = gen_surjection(sp, rng.getrandbits(40))
        claim = quotient_leq(f, g)
        meds = enumerate_mediators(f.target, g.target, precompose=((f, g),))
        assert claim == bool(meds)


def test_quotient_leq_antitone_in_kernel():
    # finer kernel metric (larger gamma) means earlier in the order
    sp = three_chain()
    ident_q = quotient_by_submetric(Submetric(sp, sp.dist))
    all_zero = quotient_by_submetric(Submetric(
        sp, IntMatrix(1, [[0] * 3] * 3)))
    assert quotient_leq(ident_q, all_zero)
    assert not quotient_leq(all_zero, ident_q)


def test_quotient_requires_separated_base():
    glued = FinSpace(("a", "b"), IntMatrix(1, [[0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        quotient_by_submetric(Submetric(glued, glued.dist))


def test_quotient_leq_requires_surjections():
    sp = three_chain()
    x2 = FinSpace(("a", "b"), IntMatrix(1, [[0, inf], [inf, 0]]))
    not_surj = FinMap(sp, x2, ("a", "a", "a"))
    surj = FinMap(sp, x2, ("a", "a", "b"))
    with pytest.raises(ValueError):
        quotient_leq(not_surj, surj)


# -- the integer submetric checks against the reference loops --------------

def reference_validate_submetric(labels, dist, gamma):
    out = reference_violations(labels, gamma)
    for i in range(len(labels)):
        for j in range(len(labels)):
            if not le(gamma[i][j], dist[i][j]):
                out.append(Violation(
                    "above-ambient", (labels[i], labels[j]),
                    "%s > %s" % (token(gamma[i][j]), token(dist[i][j]))))
    return out


@settings(deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(matrices(n, n),
                                                     matrices(n, n))))
def test_validate_submetric_matches_reference(pair):
    dist, gamma = pair
    base = FinSpace(tuple("p%d" % i for i in range(len(dist))), matrix(dist))
    assert validate_submetric(base, matrix(gamma)) == (
        reference_validate_submetric(base.labels, dist, gamma))


@settings(deadline=None)
@given(maps())
def test_kernel_metric_matches_reference(f):
    if not is_nonexpansive(f):
        with pytest.raises(ValueError):
            kernel_metric(f)
        return
    idx = [f.target.index(lab) for lab in f.assignment]
    kappa = kernel_metric(f).gamma
    e = fracs(f.target.dist)
    assert kappa == matrix([[e[i][j] for j in idx] for i in idx])
