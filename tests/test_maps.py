import os
import random
import sys

import pytest
from hypothesis import given, settings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet import maps as maps_module
from finmet.harness import GenConfig, gen_metric, gen_nonexpansive_map
from finmet.maps import (FinMap, check_nonexpansive, compose, factorize,
                         identity, is_embedding, is_injective, is_isomorphism,
                         is_nonexpansive, is_surjective, subspace)
from finmet.minplus import IntMatrix
from finmet.quotients import quotient_leq
from finmet.spaces import FinSpace, Violation
from reference import (at, fracs, le, maps, matrix, three_chain, token,
                       two_point)


def test_assignment_validation():
    sp = two_point()
    with pytest.raises(ValueError):
        FinMap(sp, sp, ("a",))
    with pytest.raises(ValueError):
        FinMap(sp, sp, ("a", "zzz"))


def test_identity_and_compose():
    sp = three_chain()
    f = identity(sp)
    assert f("v") == "v"
    g = FinMap(sp, two_point(), ("a", "a", "b"))
    assert compose(f, g).assignment == g.assignment
    with pytest.raises(ValueError):
        compose(g, f)  # boundary mismatch


def test_nonexpansive_witnesses():
    src = two_point(1)
    tgt = two_point(2)
    f = FinMap(src, tgt, ("a", "b"))
    bad = check_nonexpansive(f)
    assert {v.points for v in bad} == {("a", "b"), ("b", "a")}
    assert all(v.kind == "expansive" for v in bad)
    assert is_nonexpansive(FinMap(tgt, src, ("a", "b")))


def test_predicates():
    sp = three_chain()
    x2 = two_point()
    collapse = FinMap(sp, x2, ("a", "a", "b"))
    assert is_surjective(collapse) and not is_injective(collapse)
    incl = FinMap(x2, sp, ("u", "v"))
    assert is_injective(incl) and is_embedding(incl)
    assert not is_surjective(incl)
    assert is_isomorphism(identity(sp))
    # injective but distance-distorting: not an embedding
    skew = FinMap(x2, sp, ("u", "w"))
    assert is_injective(skew) and not is_embedding(skew)


def test_subspace_keeps_target_order():
    sp = three_chain()
    sub, incl = subspace(sp, ("w", "u"))
    assert sub.labels == ("u", "w")
    assert at(sub, "u", "w") == 2
    assert is_embedding(incl)


def test_subspace_refuses_a_label_that_is_not_a_point():
    sp = three_chain()
    with pytest.raises(KeyError, match="no point labelled 'zz'"):
        subspace(sp, ["u", "zz"])
    # A repeated label is kept once.
    sub, incl = subspace(sp, ["w", "u", "w"])
    assert sub.labels == ("u", "w") and incl.assignment == ("u", "w")


def test_factorize_surjection_then_embedding():
    sp = three_chain()
    x2 = two_point()
    f = FinMap(sp, x2, ("a", "a", "b"))
    q, i = factorize(f)
    assert is_surjective(q) and is_embedding(i)
    assert compose(q, i).assignment == f.assignment
    assert q.target.labels == ("a", "b")


def test_factorize_random_round_trip():
    rng = random.Random(17)
    for t in range(150):
        src = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        tgt = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=4))
        f = gen_nonexpansive_map(src, tgt, rng)
        if f is None:
            continue
        q, i = factorize(f)
        assert is_surjective(q)
        assert is_embedding(i)
        assert compose(q, i).assignment == f.assignment
        assert set(i.assignment) == set(f.assignment)


def test_predicates_build_no_violations(monkeypatch):
    # A yes/no question stops at the first failing entry and reports
    # nothing, so it never builds a Violation.
    def no_violations(*args):
        raise AssertionError("a predicate built a Violation")

    monkeypatch.setattr(maps_module, "Violation", no_violations)
    assert not is_nonexpansive(FinMap(two_point(1), two_point(2),
                                      ("a", "b")))
    # f glues u with v and g glues v with w: neither factors through
    # the other.
    sp, x2 = three_chain(), two_point()
    f = FinMap(sp, x2, ("a", "a", "b"))
    g = FinMap(sp, x2, ("a", "b", "b"))
    assert not quotient_leq(f, g) and not quotient_leq(g, f)


def test_map_predicates_build_no_pulled_matrix(monkeypatch):
    # The predicates read the target metric through the map's index map:
    # neither pulled_metric nor IntMatrix.sub runs.
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(maps_module, "pulled_metric",
                        counted("pulled_metric", maps_module.pulled_metric))
    monkeypatch.setattr(IntMatrix, "sub", counted("sub", IntMatrix.sub))
    sp, x2 = three_chain(), two_point()
    stretch = FinMap(two_point(1), two_point(2), ("a", "b"))
    for f in (FinMap(sp, x2, ("a", "a", "b")), stretch, identity(sp)):
        check_nonexpansive(f)
        is_nonexpansive(f)
        is_embedding(f)
    assert calls == []
    assert [str(v) for v in check_nonexpansive(stretch)] == [
        "expansive at (a, b): 2 > 1", "expansive at (b, a): 2 > 1"]
    assert is_embedding(identity(sp)) and not is_nonexpansive(stretch)


def test_factorize_requires_separation():
    glued = FinSpace(("a", "b"), IntMatrix(1, [[0, 0], [0, 0]]))
    f = FinMap(glued, two_point(None), ("a", "a"))
    with pytest.raises(ValueError):
        factorize(f)


# -- the integer map checks against the reference loops ---------------------

def reference_check_nonexpansive(f):
    out = []
    src, tgt = f.source, f.target
    d, e = fracs(src.dist), fracs(tgt.dist)
    idx = [tgt.index(lab) for lab in f.assignment]
    for i in range(src.n):
        for j in range(src.n):
            if not le(e[idx[i]][idx[j]], d[i][j]):
                out.append(Violation(
                    "expansive", (src.labels[i], src.labels[j]),
                    "%s > %s" % (token(e[idx[i]][idx[j]]), token(d[i][j]))))
    return out


def reference_is_embedding(f):
    src, tgt = f.source, f.target
    d, e = fracs(src.dist), fracs(tgt.dist)
    idx = [tgt.index(lab) for lab in f.assignment]
    return len(set(idx)) == src.n and all(
        d[i][j] == e[idx[i]][idx[j]]
        for i in range(src.n) for j in range(src.n))


@settings(deadline=None)
@given(maps())
def test_map_checks_match_reference(f):
    assert check_nonexpansive(f) == reference_check_nonexpansive(f)
    assert is_nonexpansive(f) == (not reference_check_nonexpansive(f))
    assert is_embedding(f) == reference_is_embedding(f)
    keep = set(f.assignment)
    sub, incl = subspace(f.target, keep)
    idx = [k for k, lab in enumerate(f.target.labels) if lab in keep]
    e = fracs(f.target.dist)
    assert sub.dist == matrix([[e[i][j] for j in idx] for i in idx])
    assert is_embedding(incl)
