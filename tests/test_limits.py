import os
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.harness import (GenConfig, enumerate_mediators, gen_metric,
                            gen_nonexpansive_map)
from finmet.limits import (Square, coproduct, copair, equalizer,
                           is_pullback_square, pair_label, product, pullback,
                           split_labels)
from finmet.maps import FinMap, compose, identity, is_embedding, is_nonexpansive
from finmet.minplus import IntMatrix
from finmet.spaces import FinSpace, is_separated, validate_metric
from reference import SMALL, TINY, at, le, matrix, square, two_point


def test_product_sup_metric_pinned():
    m1 = two_point(1)
    m2 = two_point(3)
    prod, p1, p2 = product(m1, m2)
    assert prod.n == 4
    assert at(prod, "(a,a)", "(b,b)") == 3   # sup(1, 3)
    assert at(prod, "(a,a)", "(b,a)") == 1   # sup(1, 0)
    assert at(prod, "(a,a)", "(a,b)") == 3
    assert p1("(b,a)") == "b" and p2("(b,a)") == "a"
    assert validate_metric(prod) == []


def test_product_universal_property_brute():
    rng = random.Random(31)
    for t in range(40):
        m1 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        m2 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        w = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        prod, p1, p2 = product(m1, m2)
        if prod.n == 0 and w.n > 0:
            continue
        f = gen_nonexpansive_map(w, m1, rng)
        g = gen_nonexpansive_map(w, m2, rng)
        if f is None or g is None:
            continue
        # the tupling is the unique mediator
        meds = enumerate_mediators(w, prod, postcompose=((p1, f), (p2, g)))
        assert len(meds) == 1
        h = meds[0]
        assert compose(h, p1).assignment == f.assignment
        assert compose(h, p2).assignment == g.assignment


def test_coproduct_cross_inf():
    m1 = two_point()
    m2 = FinSpace(("*",), IntMatrix(1, [[0]]))
    cop, j1, j2 = coproduct(m1, m2)
    assert cop.labels == ("0:a", "0:b", "1:*")
    assert at(cop, "0:a", "1:*") is None and at(cop, "1:*", "0:b") is None
    assert at(cop, "0:a", "0:b") == 1
    assert is_embedding(j1) and is_embedding(j2)


def test_copair_universal_property_brute():
    rng = random.Random(37)
    for t in range(40):
        m1 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        m2 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        tgt = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        cop, j1, j2 = coproduct(m1, m2)
        f = gen_nonexpansive_map(m1, tgt, rng)
        g = gen_nonexpansive_map(m2, tgt, rng)
        if f is None or g is None:
            continue
        h = copair(f, g, cop)
        assert is_nonexpansive(h)
        meds = enumerate_mediators(cop, tgt, precompose=((j1, f), (j2, g)))
        assert [m.assignment for m in meds] == [h.assignment]


def test_map_out_of_coproduct_is_nonexpansive_iff_both_restrictions_are():
    # B + X is infinitely far across its summands, so only a pair inside
    # one summand can be stretched.
    rng = random.Random(5)
    outcomes = []
    for t in range(300):
        b, x, tgt = (gen_metric(GenConfig(seed=rng.getrandbits(40),
                                          max_points=3)) for _ in range(3))
        cop, j1, j2 = coproduct(b, x)
        h = FinMap(cop, tgt,
                   tuple(rng.choice(tgt.labels) for _ in cop.labels))
        ok = is_nonexpansive(h)
        assert ok == (is_nonexpansive(compose(j1, h))
                      and is_nonexpansive(compose(j2, h)))
        outcomes.append(ok)
    assert True in outcomes and False in outcomes


def test_equalizer_pinned():
    x2 = two_point()
    swap = FinMap(x2, x2, ("b", "a"))
    incl = equalizer(swap, identity(x2))
    assert incl.source.labels == ()
    incl2 = equalizer(identity(x2), identity(x2))
    assert incl2.source.labels == ("a", "b")
    assert is_embedding(incl2)


def test_equalizer_universal_brute():
    rng = random.Random(41)
    for t in range(60):
        src = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        tgt = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        f = gen_nonexpansive_map(src, tgt, rng)
        g = gen_nonexpansive_map(src, tgt, rng)
        if f is None or g is None:
            continue
        incl = equalizer(f, g)
        e = incl.source
        assert compose(incl, f).assignment == compose(incl, g).assignment
        # any map equalizing f, g factors uniquely through e
        w = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=2))
        h = gen_nonexpansive_map(w, src, rng)
        if h is None:
            continue
        if compose(h, f).assignment != compose(h, g).assignment:
            continue
        meds = enumerate_mediators(w, e, postcompose=((incl, h),))
        assert len(meds) == 1


def test_pullback_square_recognized():
    rng = random.Random(43)
    for t in range(60):
        s1 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        s2 = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        tgt = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=3))
        f = gen_nonexpansive_map(s1, tgt, rng)
        g = gen_nonexpansive_map(s2, tgt, rng)
        if f is None or g is None:
            continue
        sq = pullback(f, g)
        assert sq.commutes()
        assert is_pullback_square(sq)
        assert is_separated(sq.left.source)


def test_non_pullback_square_rejected():
    # apex too small: empty space over a cospan with a real pullback
    x2 = two_point()
    empty = FinSpace((), IntMatrix(1, []))
    f = identity(x2)
    sq = Square(left=FinMap(empty, x2, ()), top=FinMap(empty, x2, ()),
                bottom=f, right=f)
    assert sq.commutes()
    assert not is_pullback_square(sq)


def test_is_pullback_raises_on_noncommuting():
    x2 = two_point()
    swap = FinMap(x2, x2, ("b", "a"))
    sq = Square(left=identity(x2), top=swap,
                bottom=identity(x2), right=identity(x2))
    with pytest.raises(ValueError):
        is_pullback_square(sq)


# -- product labels ---------------------------------------------------------

def test_product_labels_with_commas_stay_distinct():
    x = FinSpace(("a,b", "a"), IntMatrix(1, [[0, 1], [1, 0]]))
    y = FinSpace(("c", "b,c"), IntMatrix(1, [[0, 2], [2, 0]]))
    prod, p1, p2 = product(x, y)
    assert prod.labels == ('("a,b",c)', '("a,b","b,c")', "(a,c)",
                           '(a,"b,c")')
    assert [(p1(lab), p2(lab)) for lab in prod.labels] == [
        ("a,b", "c"), ("a,b", "b,c"), ("a", "c"), ("a", "b,c")]
    # Balanced labels, nested pair labels among them, keep their names.
    assert pair_label("(a,b)", "c") == "((a,b),c)"
    assert pair_label("((a,b),c)", "f(x)") == "(((a,b),c),f(x))"


def test_pullback_square_over_labels_with_commas():
    x = FinSpace(("a,b", "a", 'q"'), IntMatrix(1, [[0, 1, 2],
                                                   [1, 0, 1],
                                                   [2, 1, 0]]))
    y = FinSpace(("c", "b,c"), IntMatrix(1, [[0, 2], [2, 0]]))
    t = FinSpace((")",), IntMatrix(1, [[0]]))
    f = FinMap(x, t, (")",) * 3)
    g = FinMap(y, t, (")",) * 2)
    sq = pullback(f, g)
    assert sq.left.source.n == 6
    assert is_pullback_square(sq)
    # The same apex under other labels is still recognized.
    apex = sq.left.source
    renamed = FinSpace(tuple("w%d" % k for k in range(apex.n)), apex.dist)
    other = Square(left=FinMap(renamed, x, sq.left.assignment),
                   top=FinMap(renamed, y, sq.top.assignment),
                   bottom=f, right=g)
    assert is_pullback_square(other)


# Labels over the characters that delimit parts of a pair label.
delimiter_labels = st.text(alphabet='a,()"\\', max_size=5)


@settings(deadline=None)
@given(st.sets(st.tuples(delimiter_labels, delimiter_labels), max_size=40))
@example({("a,b", "c"), ("a", "b,c")})
@example({('"', ""), ("", '"'), ('\\', ""), ('"\\"', "")})
def test_pair_label_is_injective(pairs):
    assert len({pair_label(x, y) for x, y in pairs}) == len(pairs)


@settings(deadline=None)
@given(st.lists(delimiter_labels, unique=True, max_size=4),
       st.lists(delimiter_labels, unique=True, max_size=4))
def test_product_labels_are_pair_labels(xs, ys):
    """product writes each factor label's part once, and its labels and
    projections are those of pair_label."""
    x = FinSpace(xs, IntMatrix(1, [[0 if i == j else 1 for j in xs]
                                   for i in xs]))
    y = FinSpace(ys, IntMatrix(1, [[0 if i == j else 2 for j in ys]
                                   for i in ys]))
    prod, p1, p2 = product(x, y)
    assert prod.labels == tuple(pair_label(u, v) for u in xs for v in ys)
    assert p1.assignment == tuple(u for u in xs for _ in ys)
    assert p2.assignment == tuple(v for _ in xs for v in ys)


@settings(deadline=None)
@given(st.lists(st.tuples(delimiter_labels, delimiter_labels,
                          st.booleans()), max_size=6))
@example([("a)", "b", False), ('"', "(", True)])
def test_split_labels_reads_back_pair_labels(parts):
    """A comma-joined list of pair labels, some of them nested, splits
    back into its labels."""
    labels = [pair_label(pair_label(x, y), x) if nest else pair_label(x, y)
              for x, y, nest in parts]
    assert split_labels(",".join(labels)) == (labels or [""])


# -- the integer sup and block assembly against the reference loops --------

def labelled(dist, prefix):
    return FinSpace(tuple("%s%d" % (prefix, i) for i in range(len(dist))),
                    matrix(dist))


def reference_product_dist(d1, d2):
    pairs = [(i, j) for i in range(len(d1)) for j in range(len(d2))]

    def sup(u, v):
        return u if le(v, u) else v

    return tuple(tuple(sup(d1[i1][j1], d2[i2][j2])
                       for (j1, j2) in pairs) for (i1, i2) in pairs)


def reference_coproduct_dist(d1, d2):
    n1, n = len(d1), len(d1) + len(d2)

    def entry(i, j):
        if i < n1 and j < n1:
            return d1[i][j]
        if i >= n1 and j >= n1:
            return d2[i - n1][j - n1]
        return None

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


@settings(deadline=None)
@given(square, square)
@example([[TINY, None], [SMALL, F(0)]], [[SMALL]])
@example([], [[None]])
def test_product_and_coproduct_match_reference(d1, d2):
    m1, m2 = labelled(d1, "x"), labelled(d2, "y")
    prod, p1, p2 = product(m1, m2)
    assert prod.dist == matrix(reference_product_dist(d1, d2))
    assert prod.labels == tuple("(%s,%s)" % (x, y) for x in m1.labels
                                for y in m2.labels)
    assert [(p1(lab), p2(lab)) for lab in prod.labels] == [
        (x, y) for x in m1.labels for y in m2.labels]
    coprod, _, _ = coproduct(m1, m2)
    assert coprod.dist == matrix(reference_coproduct_dist(d1, d2))
