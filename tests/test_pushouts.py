import os
import random
import sys
from fractions import Fraction as F
from math import inf
from operator import gt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet import pushouts
from finmet.harness import (GenConfig, gen_metric, gen_nonexpansive_map,
                            sample_cost_below)
from finmet.limits import Square, coproduct, is_pullback_square
from finmet.maps import FinMap, is_embedding, is_nonexpansive, subspace
from finmet.minplus import IntMatrix, minplus_closure, pointwise
from finmet.pushouts import (cokernel_pair, glue, pushout_along_embedding,
                             pushout_closure_oracle, verify_pushout_universal)
from finmet.quotients import Submetric, kernel_metric, quotient_by_submetric
from finmet.selftest import (_corrupt_lower, _corrupt_merge,
                             _pushout_instance, _redirect)
from finmet.spaces import FinSpace, is_separated, validate_metric
from reference import (at, benchmark_sized_cost, closure, fracs, least,
                       matrix, positive, separated_metric)


def worked_instance():
    a = FinSpace(("s",), IntMatrix(1, [[0]]))
    x = FinSpace(("p", "x"), IntMatrix(1, [[0, 1], [1, 0]]))
    b = FinSpace(("q", "b"), IntMatrix(1, [[0, 2], [2, 0]]))
    return FinMap(a, x, ("p",)), FinMap(a, b, ("q",))


def glue_arcs(i, f, costs):
    """costs on B + X with the entries between f(a) and i(a) set to 0,
    both ways, for every glue point a."""
    nb = f.target.n
    rows = [list(row) for row in costs.rows]
    for a in f.source.labels:
        p, q = f.target.index(f(a)), nb + i.target.index(i(a))
        rows[p][q] = rows[q][p] = 0
    return IntMatrix(costs.den, rows)


def full_closure(m):
    """Floyd-Warshall through every point, on m's own ints."""
    d = [list(row) for row in m.rows]
    for k, row_k in enumerate(d):
        for row_i in d:
            for j, dkj in enumerate(row_k):
                if row_i[k] != inf and dkj != inf:
                    row_i[j] = min(row_i[j], row_i[k] + dkj)
    return IntMatrix(m.den, d)


def rand_instance(rng, max_points=5):
    x = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=max_points))
    keep = [lab for lab in x.labels if rng.random() < 0.5]
    _, i = subspace(x, keep)
    b = gen_metric(GenConfig(seed=rng.getrandbits(40),
                             max_points=rng.randint(len(keep), max_points)
                             if keep else max_points))
    if b.n == 0 and i.source.n > 0:
        return None
    f = FinMap(i.source, b,
               tuple(rng.choice(b.labels) for _ in i.source.labels))
    if not is_nonexpansive(f):
        return None
    return i, f


def test_worked_instance_pinned():
    i, f = worked_instance()
    result = pushout_along_embedding(i, f)
    g = result.gamma
    # glue point: q is identified with p, so they sit at distance 0
    assert at(g, "0:q", "1:p") == 0 and at(g, "1:p", "0:q") == 0
    assert at(g, "0:q", "1:x") == 1
    assert at(g, "1:x", "0:b") == 3   # x -> p=q -> b
    apex = result.apex
    assert apex.labels == ("[0:q]", "[0:b]", "[1:x]")
    assert at(apex, "[1:x]", "[0:b]") == 3
    assert at(apex, "[0:q]", "[1:x]") == 1
    assert result.square.commutes()


def test_formula_agrees_with_closure_oracle():
    rng = random.Random(61)
    done = 0
    while done < 150:
        inst = rand_instance(rng)
        if inst is None:
            continue
        done += 1
        i, f = inst
        result = pushout_along_embedding(i, f)
        oracle = pushout_closure_oracle(i, f)
        assert result.gamma.gamma == oracle.gamma
        assert is_separated(result.apex)
        assert validate_metric(result.apex) == []
        assert result.square.commutes()


def test_oracle_is_the_full_closure_of_the_glued_coproduct():
    """The oracle relaxes through the glue points only; on 200 spans of
    suite 4's generator that is the closure through every point of
    B + X."""
    for seed in range(200):
        i, f = _pushout_instance(seed)
        bx, _, _ = coproduct(f.target, i.target)
        assert (pushout_closure_oracle(i, f).gamma
                == full_closure(glue_arcs(i, f, bx.dist)))


def test_glue_is_the_full_closure_with_each_pair_zeroed():
    """On generated spaces, not only coproducts, and random index pairs,
    glue relaxes through the pairs' points only; that is the closure
    through every point of the space's matrix with each pair at 0 both
    ways.  With no pairs it is the space's own metric."""
    rng = random.Random(31)
    for _ in range(200):
        space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                     max_points=rng.randint(0, 6)))
        assert glue(space, []) == Submetric(space, space.dist)
        if space.n == 0:
            continue
        pairs = [(rng.randrange(space.n), rng.randrange(space.n))
                 for _ in range(rng.randint(1, 3))]
        rows = [list(row) for row in space.dist.rows]
        for p, q in pairs:
            rows[p][q] = rows[q][p] = 0
        glued = glue(space, pairs)
        assert glued.base == space
        assert glued.gamma == full_closure(IntMatrix(space.dist.den, rows))


def test_oracle_never_calls_the_formulas_product(monkeypatch):
    """The oracle and the universal check close the glued coproduct and
    never take the pushout formula's min-plus products."""
    spans = [worked_instance()] + [_pushout_instance(s) for s in range(8)]
    results = [pushout_along_embedding(i, f) for i, f in spans]
    lowered = [_corrupt_lower(r) for r in results]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called int_product")

    monkeypatch.setattr(pushouts, "int_product", refuse)
    for (i, f), result, bad in zip(spans, results, lowered):
        assert pushout_closure_oracle(i, f).gamma == result.gamma.gamma
        assert verify_pushout_universal(result)
        assert bad is None or not verify_pushout_universal(bad)


def test_empty_glue_gives_coproduct():
    x = FinSpace(("p",), IntMatrix(1, [[0]]))
    b = FinSpace(("q",), IntMatrix(1, [[0]]))
    empty = FinSpace((), IntMatrix(1, []))
    i = FinMap(empty, x, ())
    f = FinMap(empty, b, ())
    result = pushout_along_embedding(i, f)
    assert at(result.gamma, "0:q", "1:p") is None
    assert result.apex.n == 2


def test_universal_property_sampled():
    rng = random.Random(67)
    done = 0
    while done < 25:
        inst = rand_instance(rng, max_points=4)
        if inst is None:
            continue
        done += 1
        i, f = inst
        result = pushout_along_embedding(i, f)
        assert verify_pushout_universal(result)


def _legs_form_a_cocone(result):
    """Whether the square's legs, as one map out of B + X, are
    non-expansive into the apex and agree on the glue points."""
    sq = result.square
    bx, _, _ = coproduct(sq.left.target, sq.top.target)
    legs = FinMap(bx, result.apex, sq.bottom.assignment + sq.right.assignment)
    return is_nonexpansive(legs) and all(
        sq.bottom(sq.left(a)) == sq.right(sq.top(a))
        for a in sq.left.source.labels)


def _reference_mediator_exists(result, h):
    """Whether the square is a cocone and the mediator out of its apex
    for the cocone h, built point by point, is well defined and
    non-expansive."""
    if not _legs_form_a_cocone(result):
        return False
    legs = result.leg_b.assignment + result.leg_x.assignment
    mediator = {}
    for apex_lab, want in zip(legs, h.assignment):
        if mediator.setdefault(apex_lab, want) != want:
            return False
    apex = result.apex
    u = FinMap(apex, h.target, tuple(mediator[lab] for lab in apex.labels))
    return is_nonexpansive(u)


def _reference_cocones(result, trials, seed):
    """(kind, h) for each of trials sampled cocones, in order, with each
    glued cocone built as a quotient map and each raw one as a FinMap.
    The first is the projection onto the glued closure of B + X; the
    rest are glued random costs below d_{B+X} and rejection-sampled raw
    assignments into small random targets."""
    f, i = result.square.left, result.square.top
    bx, _, _ = coproduct(f.target, i.target)
    pairs = [(f.target.index(f(a)), f.target.n + i.target.index(i(a)))
             for a in f.source.labels]

    def glued(costs):
        closed = glue(FinSpace(bx.labels, minplus_closure(costs)),
                      pairs).gamma
        # Closing first changes nothing: closure(glue(closure c)) is
        # closure(glue(c)), so the cocones are those of the raw costs.
        assert closed == full_closure(glue_arcs(i, f, costs))
        return quotient_by_submetric(Submetric(bx, closed))

    rng = random.Random(seed)
    yield "glued", glued(bx.dist)
    checked, attempts = 1, 0
    while checked < trials and attempts < trials * 200:
        attempts += 1
        if rng.random() < 0.5:
            kind, h = "glued", glued(sample_cost_below(bx, rng))
        else:
            t_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                           max_points=rng.randint(1, 4)))
            kind, h = "raw", FinMap(bx, t_space, tuple(
                rng.choice(t_space.labels) for _ in bx.labels))
            if not is_nonexpansive(h) or any(
                    h.assignment[p] != h.assignment[q] for p, q in pairs):
                continue
        checked += 1
        yield kind, h


def _corrupt_raise(result):
    """Raise every off-diagonal apex distance to inf, which keeps the
    apex a metric; None if that changes nothing."""
    apex = result.apex
    rows = [[0 if p == q else inf for q in range(apex.n)]
            for p in range(apex.n)]
    dist = IntMatrix(apex.dist.den, rows)
    if dist == apex.dist:
        return None
    return _redirect(result, FinSpace(apex.labels, dist), lambda lab: lab)


def _split_glued_point(result):
    """Give the first glue point's apex point a twin at 0 both ways and
    send the X leg's image of that glue point to the twin, so that the
    legs disagree on it; None if A is empty."""
    sq, apex = result.square, result.apex
    if not sq.top.source.n:
        return None
    glued = sq.top.assignment[0]
    hit = sq.right(glued)
    k = apex.index(hit)
    rows = [list(row) + [row[k]] for row in apex.dist.rows]
    rows.append(rows[k][:-1] + [0])
    twin = FinSpace(apex.labels + ("twin",), IntMatrix(apex.dist.den, rows))
    right = FinMap(sq.right.source, twin, tuple(
        "twin" if x == glued else y
        for x, y in zip(sq.right.source.labels, sq.right.assignment)))
    return pushouts.PushoutResult(Square(
        sq.left, sq.top, FinMap(sq.bottom.source, twin, sq.bottom.assignment),
        right), result.gamma)


def _raise_diagonal(result):
    """result with the first apex point at distance inf from itself."""
    apex = result.apex
    rows = [list(row) for row in apex.dist.rows]
    rows[0][0] = inf
    return _redirect(result, FinSpace(apex.labels,
                                      IntMatrix(apex.dist.den, rows)),
                     lambda lab: lab)


def test_kernel_criterion_matches_the_mediator_route():
    """The exact verdict is the verdict of building sampled cocones and
    their mediators, on genuine pushouts, on corrupted ones (an apex
    distance lowered, every apex distance raised to inf, two apex points
    merged, a glued apex point split in two) and on apexes with a
    nonzero diagonal entry, and every sampled cocone's kernel metric
    lies below the glued closure's.  A raised apex or diagonal entry
    makes the legs stretch, and a split point makes them disagree on A,
    so the square is no cocone and is refused."""
    refused = {"glued": 0, "raw": 0}
    for seed in range(40):
        result = pushout_along_embedding(*_pushout_instance(seed, 3))
        variants = [r for r in (result, _corrupt_lower(result),
                                _corrupt_merge(result)) if r is not None]
        no_cocones = [r for r in [_corrupt_raise(result),
                                  _split_glued_point(result)] + [
            _raise_diagonal(r) for r in variants] if r is not None]
        for r in no_cocones:
            assert not _legs_form_a_cocone(r)
        for r in variants + no_cocones:
            cocones = list(_reference_cocones(r, 20, seed))
            no = [not _reference_mediator_exists(r, h) for _, h in cocones]
            assert verify_pushout_universal(r) == (not any(no))
            top = kernel_metric(cocones[0][1]).gamma
            cocone = _legs_form_a_cocone(r)
            for (kind, h), refusal in zip(cocones, no):
                assert not any(pointwise(kernel_metric(h).gamma, top, gt))
                # Only a cocone square's refusals come from a mediator.
                refused[kind] += refusal and cocone
    assert refused["glued"] > 0 and refused["raw"] > 0


def test_universal_check_builds_the_coproduct_once(monkeypatch):
    from finmet import pushouts
    result = pushout_along_embedding(*worked_instance())
    calls = {"coproduct": 0, "compose": 0}
    for name in calls:
        def counted(*args, _real=getattr(pushouts, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(pushouts, name, counted)
    assert verify_pushout_universal(result)
    assert calls == {"coproduct": 1, "compose": 0}


def test_universal_check_draws_nothing(monkeypatch):
    """The check compares the greatest cocone only, so it draws no
    random cost or target space."""
    from finmet import harness

    def refuse(*args, **kwargs):
        raise AssertionError("verify_pushout_universal drew a cocone")

    monkeypatch.setattr(harness, "gen_metric", refuse)
    monkeypatch.setattr(harness, "sample_cost_below", refuse)
    result = pushout_along_embedding(*worked_instance())
    assert verify_pushout_universal(result)
    assert not verify_pushout_universal(_corrupt_lower(result))


def glued_result(i, f):
    """A hand-built pushout square of any span: the apex is the quotient
    of B + X by glue at the glue pairs, the legs its two restrictions."""
    bx, _, _ = coproduct(f.target, i.target)
    nb = f.target.n
    gamma = glue(bx, [(f.target.index(f(a)), nb + i.target.index(i(a)))
                      for a in f.source.labels])
    proj = quotient_by_submetric(gamma)
    apex = proj.target
    return pushouts.PushoutResult(Square(
        f, i, FinMap(f.target, apex, proj.assignment[:nb]),
        FinMap(i.target, apex, proj.assignment[nb:])), gamma)


def test_universal_check_decides_spans_that_are_not_embeddings():
    """verify_pushout_universal runs no embedding check: on spans whose
    i is not an embedding it accepts the glued square, refuses its
    lowered corruption, and agrees with the sampled mediator route."""
    a = FinSpace(("s", "t"), IntMatrix(1, [[0, 2], [2, 0]]))
    x = FinSpace(("p", "x"), IntMatrix(1, [[0, 1], [1, 0]]))
    b = FinSpace(("q", "b"), IntMatrix(1, [[0, 2], [2, 0]]))
    shrink, f = FinMap(a, x, ("p", "x")), FinMap(a, b, ("q", "b"))
    result = glued_result(shrink, f)
    # q is glued to p and b to x, so d(q, b) drops from 2 to d(p, x) = 1.
    assert result.apex.n == 2 and at(result.gamma, "0:q", "0:b") == 1
    cases = [(shrink, f)]
    rng = random.Random(37)
    while len(cases) < 25:
        a = gen_metric(GenConfig(seed=rng.getrandbits(63), max_points=3))
        i = gen_nonexpansive_map(a, gen_metric(GenConfig(
            seed=rng.getrandbits(63), max_points=rng.randint(1, 3))), rng)
        f = gen_nonexpansive_map(a, gen_metric(GenConfig(
            seed=rng.getrandbits(63), max_points=rng.randint(1, 3))), rng)
        if i is not None and f is not None and not is_embedding(i):
            cases.append((i, f))
    refused = 0
    for seed, (i, f) in enumerate(cases):
        result = glued_result(i, f)
        assert result.square.commutes()
        assert verify_pushout_universal(result)
        bad = _corrupt_lower(result)
        if bad is not None:
            refused += 1
            assert not verify_pushout_universal(bad)
        for r in filter(None, (result, bad)):
            assert verify_pushout_universal(r) == all(
                _reference_mediator_exists(r, h)
                for _, h in _reference_cocones(r, 10, seed))
    assert refused > 0


def test_requires_embedding():
    x2 = FinSpace(("a", "b"), IntMatrix(1, [[0, 1], [1, 0]]))
    one = FinSpace(("*",), IntMatrix(1, [[0]]))
    squash = FinMap(x2, one, ("*", "*"))
    with pytest.raises(ValueError):
        pushout_along_embedding(squash, squash)


def test_requires_nonexpansive_leg():
    a = FinSpace(("s", "t"), IntMatrix(1, [[0, 1], [1, 0]]))
    b = FinSpace(("u", "v"), IntMatrix(1, [[0, 3], [3, 0]]))
    i = FinMap(a, a, ("s", "t"))
    stretch = FinMap(a, b, ("u", "v"))
    with pytest.raises(ValueError):
        pushout_along_embedding(i, stretch)
    with pytest.raises(ValueError):
        pushout_closure_oracle(i, stretch)


def test_pushout_of_embeddings_legs_are_embeddings():
    rng = random.Random(71)
    for t in range(100):
        w = gen_metric(GenConfig(seed=rng.getrandbits(40), max_points=5))
        keep0 = [lab for lab in w.labels if rng.random() < 0.7]
        keep1 = [lab for lab in w.labels if rng.random() < 0.7]
        shared = [lab for lab in keep0 if lab in keep1]
        y0, _ = subspace(w, keep0)
        y1, _ = subspace(w, keep1)
        x, _ = subspace(w, shared)
        f0 = FinMap(x, y0, tuple(x.labels))
        f1 = FinMap(x, y1, tuple(x.labels))
        result = pushout_along_embedding(f1, f0)
        assert is_embedding(result.leg_b)
        assert is_embedding(result.leg_x)
        assert result.square.commutes()
        assert is_pullback_square(result.square)


def test_cokernel_pair_diagonal():
    x2 = FinSpace(("a", "b"), IntMatrix(1, [[0, 1], [1, 0]]))
    one = FinSpace(("a",), IntMatrix(1, [[0]]))
    i = FinMap(one, x2, ("a",))
    q0, q1, apex = cokernel_pair(i)
    # the two copies of b stay apart, the two copies of a merge
    assert q0("a") == q1("a")
    assert q0("b") != q1("b")
    assert apex.n == 3
    assert at(apex, q0("b"), q1("b")) == 2  # b -> a -> b'


def capped_span(x, keep, fa, cost):
    """The embedding of keep into x and the map f: A -> B sending A's
    s-th point to B's point fa[s], where B is the closure of cost (zero
    diagonal, positive arcs) capped by d_A along f, so f is
    non-expansive."""
    a, i = subspace(x, keep)
    cost = [[F(0) if p == q else v for q, v in enumerate(row)]
            for p, row in enumerate(cost)]
    d_a = fracs(a.dist)
    for s in range(a.n):
        for t in range(a.n):
            if fa[s] != fa[t]:
                cost[fa[s]][fa[t]] = least(cost[fa[s]][fa[t]], d_a[s][t])
    b = FinSpace(tuple("b%d" % k for k in range(len(cost))),
                 matrix(closure(cost)))
    return i, FinMap(a, b, tuple(b.labels[k] for k in fa))


@st.composite
def spans(draw, fold=False):
    """An embedding i: A -> X of a subspace and a non-expansive f: A -> B
    on separated metrics with mixed denominators and INF rows: B's costs
    are capped by d_A along f before the closure, which only lowers them.
    With fold, f is not injective: A has at least two points, and f sends
    the first and the last to one point, or all of A to one point."""
    n = draw(st.integers(2 if fold else 1, 5))
    x = FinSpace(tuple("x%d" % k for k in range(n)),
                 matrix(draw(separated_metric(n))))
    keep = draw(st.lists(st.sampled_from(x.labels), unique=True,
                         min_size=2 if fold else 0))
    m = draw(st.integers(1, 4))
    fa = draw(st.lists(st.integers(0, m - 1), min_size=len(keep),
                       max_size=len(keep)))
    if fold:
        fa[-1] = fa[0]
        if draw(st.booleans()):
            fa = [fa[0]] * len(fa)
    cost = draw(st.lists(st.lists(positive, min_size=m, max_size=m),
                         min_size=m, max_size=m))
    return capped_span(x, keep, fa, cost)


def reference_glued(i, f):
    """The reference closure of B + X, INF across, with d(f(a), i(a)) = 0
    both ways at each glue point a."""
    nb, nx = f.target.n, i.target.n
    cost = ([row + [None] * nx for row in fracs(f.target.dist)]
            + [[None] * nb + row for row in fracs(i.target.dist)])
    for lab in f.source.labels:
        p, q = f.target.index(f(lab)), nb + i.target.index(i(lab))
        cost[p][q] = cost[q][p] = F(0)
    return matrix(closure(cost))


@settings(deadline=None)
@given(spans())
def test_formula_gamma_matches_oracle_on_exact_spans(span):
    i, f = span
    result = pushout_along_embedding(i, f)
    assert result.gamma.gamma == pushout_closure_oracle(i, f).gamma
    assert validate_metric(result.apex) == []
    assert result.square.commutes()


@settings(deadline=None)
@given(spans(fold=True))
def test_formula_and_oracle_match_reference_on_folding_spans(span):
    """The X-X block routes through the distinct images f(A) only, which
    are fewer than A's points here."""
    i, f = span
    want = reference_glued(i, f)
    assert pushout_along_embedding(i, f).gamma.gamma == want
    assert pushout_closure_oracle(i, f).gamma == want


@pytest.mark.parametrize("fold", ["pair", "constant"])
def test_formula_and_oracle_match_reference_at_benchmark_size(fold):
    """Spans shaped like the benchmark's: X on 24 points, A on 5, B on 8,
    with f folding two glue points, or all five, onto one."""
    rng = random.Random(fold)
    x = FinSpace(tuple("x%d" % k for k in range(24)),
                 matrix(closure(benchmark_sized_cost(33))))
    keep = rng.sample(x.labels, 5)
    fa = ([rng.randrange(8)] * 5 if fold == "constant"
          else [rng.randrange(8) for _ in range(4)])
    if fold == "pair":
        fa.append(fa[0])
    cost = [[rng.choice((None, F(rng.randint(1, 12), rng.choice((1, 2, 3)))))
             for _ in range(8)] for _ in range(8)]
    i, f = capped_span(x, keep, fa, cost)
    want = reference_glued(i, f)
    assert pushout_along_embedding(i, f).gamma.gamma == want
    assert pushout_closure_oracle(i, f).gamma == want


def test_detour_of_three_finite_arcs():
    # x -> p, then f(p) -> f(q) in B, then q -> y: three finite arcs of
    # the largest value, while d_X(x, y) is infinite.
    x = FinSpace(("x", "p", "q", "y"), IntMatrix(1, [[0, 1, inf, inf],
                                                     [inf, 0, inf, inf],
                                                     [inf, inf, 0, 1],
                                                     [inf, inf, inf, 0]]))
    a, i = subspace(x, ("p", "q"))
    b = FinSpace(("b1", "b2"), IntMatrix(1, [[0, 1], [inf, 0]]))
    f = FinMap(a, b, ("b1", "b2"))
    result = pushout_along_embedding(i, f)
    assert at(result.gamma, "1:x", "1:y") == 3
    assert result.gamma.gamma == pushout_closure_oracle(i, f).gamma
