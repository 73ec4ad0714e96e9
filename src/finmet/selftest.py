"""Named self-test suites: executable statements of the library's
correctness properties, shared by the CLI `selftest` command and the
test suite.

A suite takes a seed, runs a fixed number of seeded trials and returns
its PASS detail.  Each check goes through `_require`, so a suite stops
at its first counterexample.  `run_suite` turns either outcome, or any
exception the suite raises, into a CriterionResult, whose number is the
suite's 1-based position in SUITES and whose name is its key there.
"""

from __future__ import annotations

import itertools
import random
from math import inf

from . import corelations, idempotents, pushouts
from .harness import (_GRID, GenConfig, brute_iso_check, enumerate_mediators,
                      gen_metric, gen_nonexpansive_map, gen_submetric,
                      gen_subset, gen_surjection)
from .limits import Square, equalizer, is_pullback_square
from .maps import (FinMap, compose, factorize, is_embedding, is_isomorphism,
                   is_surjective, subspace)
from .minplus import IntMatrix, minplus_closure, scale
from .quotients import (counit_iso, kernel_metric, quotient_by_submetric,
                        quotient_leq)
from .spaces import FinSpace, Frozen, is_separated, validate_metric


class CriterionResult(Frozen):
    __slots__ = ("number", "name", "ok", "detail")

    def __init__(self, number, name, ok, detail=""):
        set_ = object.__setattr__
        set_(self, "number", number)
        set_(self, "name", name)
        set_(self, "ok", ok)
        set_(self, "detail", detail)

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        msg = "criterion %2d %-22s %s" % (self.number, self.name, status)
        if self.detail:
            msg += "  (%s)" % self.detail
        return msg


class _Counterexample(Exception):
    """A failed check; its message is the criterion's FAIL detail."""


def _require(ok, detail, *args):
    """Stop the suite with detail % args as its counterexample unless ok."""
    if not ok:
        raise _Counterexample(detail % args)


def _seed(base, suite, trial):
    return (base * 1000003 + suite * 10007 + trial) & 0x7FFFFFFFFFFFFFFF


def _space(rng, lo, hi):
    """A generated space, seeded from rng, asked for lo to hi points."""
    return gen_metric(GenConfig(seed=rng.getrandbits(63),
                                max_points=rng.randint(lo, hi)))


# -- suite 1: metric laws -------------------------------------------------

def suite_metric_laws(seed):
    trials = 500
    grid = _GRID.rows[0]
    for t in range(trials):
        s = _seed(seed, 1, t)
        space = gen_metric(GenConfig(seed=s, max_points=t % 7))
        _require(not validate_metric(space),
                 "generated space fails axioms at trial %d", t)
        _require(is_separated(space),
                 "generated space not separated at trial %d", t)
        rng = random.Random(s ^ 0x5A5A)
        n = t % 7
        cost = [[0 if i == j else rng.choice(grid) for j in range(n)]
                for i in range(n)]
        once = minplus_closure(IntMatrix(_GRID.den, cost))
        _require(minplus_closure(once) == once,
                 "closure not idempotent at trial %d", t)
    return "%d spaces" % trials


# -- suite 2: factorization -----------------------------------------------

def suite_factorization(seed):
    trials, squares = 300, 100
    for t in range(trials):
        rng = random.Random(_seed(seed, 2, t))
        src = _space(rng, 0, 6)
        tgt = _space(rng, 1, 6)
        f = gen_nonexpansive_map(src, tgt, rng)
        q, i = factorize(f)
        _require(compose(q, i).assignment == f.assignment,
                 "composite differs at trial %d", t)
        _require(is_surjective(q) and is_embedding(i),
                 "wrong factor class at trial %d", t)
    for t in range(squares):
        rng = random.Random(_seed(seed, 2, 100000 + t))
        a_space = _space(rng, 0, 3)
        e = gen_surjection(a_space, rng.getrandbits(63))
        d_space = _space(rng, 1, 3)
        keep = [lab for lab in d_space.labels if rng.random() < 0.7]
        if not keep:
            keep = list(d_space.labels)
        _, m = subspace(d_space, keep)
        h = gen_nonexpansive_map(e.target, m.source, rng)
        fillers = enumerate_mediators(
            e.target, m.source,
            precompose=[(e, compose(e, h))],
            postcompose=[(m, compose(h, m))])
        _require(len(fillers) == 1,
                 "%d diagonal fillers at square %d", len(fillers), t)
    return "%d morphisms, %d squares" % (trials, squares)


# -- suite 3: duality ------------------------------------------------------

def suite_duality(seed):
    trials, pairs = 300, 200
    for t in range(trials):
        rng = random.Random(_seed(seed, 3, t))
        base = _space(rng, 0, 5)
        gamma = gen_submetric(base, rng.getrandbits(63))
        _require(kernel_metric(quotient_by_submetric(gamma)).gamma
                 == gamma.gamma, "kernel round trip fails at trial %d", t)
        f = gen_surjection(base, rng.getrandbits(63))
        eps = counit_iso(f)
        _require(is_isomorphism(eps), "counit not iso at trial %d", t)
        p = quotient_by_submetric(kernel_metric(f))
        _require(compose(p, eps).assignment == f.assignment,
                 "counit triangle fails at trial %d", t)
    for t in range(pairs):
        rng = random.Random(_seed(seed, 3, 100000 + t))
        base = _space(rng, 0, 4)
        f = gen_surjection(base, rng.getrandbits(63))
        g = gen_surjection(base, rng.getrandbits(63))
        by_matrix = quotient_leq(f, g)
        _, (kf, kg) = scale(kernel_metric(f).gamma, kernel_metric(g).gamma)
        pointwise = all(kg[i][j] <= kf[i][j]
                        for i in range(base.n) for j in range(base.n))
        mediators = enumerate_mediators(f.target, g.target, precompose=[(f, g)])
        _require(by_matrix == pointwise == bool(mediators),
                 "three-way disagreement at pair %d", t)
        _require(len(mediators) <= 1, "mediator not unique at pair %d", t)
    return "%d submetrics, %d pairs" % (trials, pairs)


# -- suites 4/5/6: pushouts ------------------------------------------------

def _pushout_instance(seed, max_points=5):
    """An embedding i of a subspace into X plus a map f out of it."""
    rng = random.Random(seed)
    x_space = _space(rng, 0, max_points)
    keep = [lab for lab in x_space.labels if rng.random() < 0.6]
    a_space, i = subspace(x_space, keep)
    b_space = _space(rng, 1, max_points)
    f = gen_nonexpansive_map(a_space, b_space, rng)
    return i, f


def suite_pushout_formula(seed):
    trials = 300
    for t in range(trials):
        i, f = _pushout_instance(_seed(seed, 4, t))
        result = pushouts.pushout_along_embedding(i, f)
        oracle = pushouts.pushout_closure_oracle(i, f)
        _require(result.gamma.gamma == oracle.gamma,
                 "formula/oracle mismatch at trial %d", t)
    # The 3-point gluing instance with hand-checked pushout distances.
    a_space = FinSpace(("s",), IntMatrix(1, [(0,)]))
    x_space = FinSpace(("p", "x"), IntMatrix(1, [(0, 1), (1, 0)]))
    b_space = FinSpace(("q", "b"), IntMatrix(1, [(0, 2), (2, 0)]))
    result = pushouts.pushout_along_embedding(
        FinMap(a_space, x_space, ("p",)), FinMap(a_space, b_space, ("q",)))
    # gamma on 0:q, 0:b, 1:p, 1:x: q glued to p, x at 1 from q, 3 from b.
    _require(result.gamma.gamma == IntMatrix(1, [(0, 2, 0, 1), (2, 0, 2, 3),
                                                 (0, 2, 0, 1), (1, 3, 1, 0)]),
             "worked fixture gamma mismatch")
    p = result.apex
    _require(p.labels == ("[0:q]", "[0:b]", "[1:x]")
             and p.dist == IntMatrix(1, [(0, 2, 1), (2, 0, 3), (1, 3, 0)]),
             "worked fixture apex mismatch")
    return "%d instances + worked fixture" % trials


def _redirect(result, apex, relabel):
    """result with both legs sent into apex, each point through relabel."""
    def leg(m):
        return FinMap(m.source, apex, tuple(map(relabel, m.assignment)))

    sq = result.square
    return pushouts.PushoutResult(
        Square(sq.left, sq.top, leg(sq.bottom), leg(sq.right)), result.gamma)


def _corrupt_lower(result):
    """Lower one positive apex distance to zero; None if all are zero."""
    apex = result.apex
    rows = apex.dist.rows
    for p, row in enumerate(rows):
        for q, x in enumerate(row):
            if p != q and x > 0:
                lowered = [list(r) for r in rows]
                lowered[p][q] = 0
                dist = IntMatrix(apex.dist.den, lowered)
                return _redirect(result, FinSpace(apex.labels, dist),
                                 lambda lab: lab)
    return None


def _corrupt_merge(result):
    """Redirect the second apex point onto the first; None if apex < 2 points."""
    apex = result.apex
    if apex.n < 2:
        return None
    gone, into = apex.labels[1], apex.labels[0]
    small, _ = subspace(apex, [lab for lab in apex.labels if lab != gone])
    return _redirect(result, small, lambda lab: into if lab == gone else lab)


def suite_pushout_universal(seed):
    squares, corrupted = 50, 20
    for t in range(squares):
        i, f = _pushout_instance(_seed(seed, 5, t), max_points=3)
        result = pushouts.pushout_along_embedding(i, f)
        _require(pushouts.verify_pushout_universal(result),
                 "genuine pushout refuted at square %d", t)
    done = 0
    t = 0
    while done < corrupted and t < corrupted * 50:
        i, f = _pushout_instance(_seed(seed, 5, 100000 + t), max_points=3)
        t += 1
        result = pushouts.pushout_along_embedding(i, f)
        bad = _corrupt_lower(result) if done % 2 == 0 else _corrupt_merge(result)
        if bad is None:
            continue
        _require(not pushouts.verify_pushout_universal(bad),
                 "corrupted pushout accepted (attempt %d)", t)
        done += 1
    _require(done == corrupted,
             "could not build %d corrupted squares", corrupted)
    return "%d squares, %d corruptions" % (squares, corrupted)


def suite_embedding_stability(seed):
    trials = 300
    for t in range(trials):
        i, f = _pushout_instance(_seed(seed, 4, t))  # the suite-4 instances
        result = pushouts.pushout_along_embedding(i, f)
        _require(is_embedding(result.leg_b),
                 "pushed-out leg not embedding at trial %d", t)
    return "%d instances" % trials


# -- suite 7: pullback property -------------------------------------------

def _embedding_pair(seed):
    """Two embeddings out of a common subspace of one generated space."""
    rng = random.Random(seed)
    w = _space(rng, 0, 6)
    u0 = [lab for lab in w.labels if rng.random() < 0.7]
    u1 = [lab for lab in w.labels if rng.random() < 0.7]
    common = [lab for lab in u0 if lab in u1]
    y0, _ = subspace(w, u0)
    y1, _ = subspace(w, u1)
    x_space, _ = subspace(w, common)
    return (FinMap(x_space, y0, x_space.labels),
            FinMap(x_space, y1, x_space.labels))


def suite_pullback(seed):
    trials = 300
    for t in range(trials):
        f0, f1 = _embedding_pair(_seed(seed, 7, t))
        result = pushouts.pushout_along_embedding(f1, f0)
        _require(is_pullback_square(result.square),
                 "pushout square not a pullback at trial %d", t)
        q0, q1, _ = pushouts.cokernel_pair(f0)
        eq = equalizer(q0, q1)
        _require(sorted(f0.assignment) == sorted(eq.assignment)
                 and brute_iso_check(eq.source, f0.source),
                 "equalizer round trip fails at trial %d", t)
    return "%d embedding pairs" % trials


# -- suite 8: subset corelations ------------------------------------------

def suite_gamma_subset(seed):
    trials = 300
    for t in range(trials):
        rng = random.Random(_seed(seed, 8, t))
        x_space = _space(rng, 0, 6)
        subset = gen_subset(x_space, rng)
        bm = corelations.gamma_from_subset(x_space, subset)
        _require(corelations.is_equivalence(bm),
                 "subset corelation not equivalence, trial %d", t)
        locus = corelations.zero_locus(bm)
        _require(corelations.is_effective(bm, locus),
                 "subset corelation not effective, trial %d", t)
        _require(set(locus) == set(subset),
                 "zero locus differs from subset, trial %d", t)
        _, incl = subspace(x_space, subset)
        q0, q1, _ = pushouts.cokernel_pair(incl)
        _require(corelations.corelation_from_cospan(q0, q1) == bm,
                 "cokernel-pair corelation differs, trial %d", t)
    return "%d subset pairs" % trials


# -- suite 9: effectiveness, exhaustively on two points --------------------

def two_point_space():
    return FinSpace(("a", "b"), IntMatrix(1, [(0, 1), (1, 0)]))


def suite_effective_exhaustive(seed):
    x2 = two_point_space()
    survivors = 0
    for entries in itertools.product(_GRID.rows[0], repeat=4):
        cross = IntMatrix(_GRID.den, [entries[:2], entries[2:]])
        bm = corelations.BlockMetric(base=x2, g00=x2.dist, g01=cross,
                                     g10=cross, g11=x2.dist)
        # The equivalence test is the cheaper one and rejects most.
        if not corelations.is_equivalence(bm):
            continue
        if corelations.validate_blockmetric(bm):
            continue
        survivors += 1
        _require(corelations.is_effective(bm),
                 "non-effective equivalence: cross=%s", cross)
    _require(survivors >= 3, "only %d equivalence survivors", survivors)
    return "%d survivors, all effective" % survivors


# -- suite 10: idempotence lemma ------------------------------------------

_INT_GRID = (0, 1, 2, inf)


def _int_idempotent(rho, n):
    for i in range(n):
        row = rho[i]
        for j in range(n):
            best = inf
            for k in range(n):
                s = row[k] + rho[k][j]
                if s < best:
                    best = s
            if best != row[j]:
                return False
    return True


def _grid_idempotents(grid, n):
    """Every n x n matrix over grid (ints and math.inf) that equals
    its min-plus square, as a list of rows, in itertools.product order.

    Cells are filled row by row, each with the grid's values in order,
    and a partial matrix is dropped on either of two prunes, neither of
    which drops an idempotent, since rho(x, z) = (rho * rho)(x, z) is
    the least rho(x, y) + rho(y, z):
    - an assigned triple breaks rho(x, z) <= rho(x, y) + rho(y, z);
    - row x and column z are both assigned, and no y attains rho(x, z),
      that is, rho(x, y) + rho(y, z) > rho(x, z) for every y.
    The second prune stops short of the last cell, so every full matrix
    the search keeps goes through _int_idempotent, the independent
    product, and that product alone decides it.
    """
    cells = n * n
    if not cells:
        if _int_idempotent([], 0):
            yield []
        return
    last = cells - 1
    # closing[c]: the triples (xz, xy, yz), as flat cells, whose last
    # cell is c.  A triple with y = x or y = z always holds.
    closing = [[] for _ in range(cells)]
    for x, y, z in itertools.product(range(n), repeat=3):
        if y != x and y != z:
            xz, xy, yz = x * n + z, x * n + y, y * n + z
            closing[max(xz, xy, yz)].append((xz, xy, yz))
    # attaining[c]: for each pair (x, z) whose row x and column z are
    # complete at cell c < last, the cell xz and its routes (xy, yz).
    attaining = [[] for _ in range(cells)]
    for x, z in itertools.product(range(n), repeat=2):
        c = max(x * n + n - 1, (n - 1) * n + z)
        if c < last:
            attaining[c].append((x * n + z, [(x * n + y, y * n + z)
                                             for y in range(n)]))
    checks = list(zip(closing, attaining))
    flat = [0] * cells
    # Depth-first over the cells: tried[c] counts the grid values cell c
    # has taken since its predecessor last changed.
    tried = [0] * cells
    size = len(grid)
    c = 0
    while c >= 0:
        i = tried[c]
        if i == size:
            tried[c] = 0
            c -= 1
            continue
        tried[c] = i + 1
        flat[c] = grid[i]
        triangles, routes = checks[c]
        kept = True
        for xz, xy, yz in triangles:
            if flat[xz] > flat[xy] + flat[yz]:
                kept = False
                break
        if kept:
            for xz, pairs in routes:
                target = flat[xz]
                for xy, yz in pairs:
                    if flat[xy] + flat[yz] <= target:
                        break
                else:
                    kept = False
                    break
        if not kept:
            continue
        if c < last:
            c += 1
            continue
        rho = [flat[r * n:(r + 1) * n] for r in range(n)]
        if _int_idempotent(rho, n):
            yield rho


# The labels p0, p1, ... of an n-point cost matrix, built once per size
# up to the 4 points of suite 10's largest matrices.
_LABELS = tuple(tuple("p%d" % i for i in range(n)) for n in range(5))


def _int_to_cost(rho, n):
    return idempotents.CostMatrix(_LABELS[n], IntMatrix(1, rho))


def suite_idempotence(seed):
    # Exhaustive over the integer grid, pruned: _grid_idempotents drops a
    # partial matrix only when it breaks a triangle or has a complete row
    # x and column z with no y attaining rho(x, z), which no idempotent
    # does, since rho(x, z) is the least rho(x, y) + rho(y, z).  Each full
    # matrix it keeps is checked by _int_idempotent, a second, independent
    # product, and factor_through_zero_diagonal, which raises on a matrix
    # that is not idempotent, re-confirms each survivor through the
    # exact-arithmetic route.  The grid {inf, 0} gives the idempotent
    # relations (0 for related), and the lemma's witnesses on them are
    # the relational corollary's density witnesses.
    generated = 200
    checked = []
    for grid, sizes in ((_INT_GRID, (1, 2, 3)), ((inf, 0), (1, 2, 3, 4))):
        count = 0
        for n in sizes:
            for rho in _grid_idempotents(grid, n):
                _require(idempotents.factor_through_zero_diagonal(
                    _int_to_cost(rho, n)).ok, "witness missing for %r", rho)
                count += 1
        checked.append(count)
    # Pre-filter soundness spot check on random matrices, about half of
    # the relations not idempotent.
    for grid, top, count, s in ((_INT_GRID, 3, 2000, _seed(seed, 10, 0)),
                                ((inf, 0), 4, 1000, _seed(seed, 10, 1))):
        rng = random.Random(s)
        for _ in range(count):
            n = rng.randint(1, top)
            rho = [[rng.choice(grid) for _ in range(n)] for _ in range(n)]
            _require(_int_idempotent(rho, n)
                     == idempotents.is_idempotent(_int_to_cost(rho, n)),
                     "pre-filter unsound on %r", rho)
    # Generated idempotents via the min-over-subset construction.
    for t in range(generated):
        rng = random.Random(_seed(seed, 10, 1000 + t))
        space = _space(rng, 1, 6)
        subset = gen_subset(space, rng) or (space.labels[0],)
        rho = corelations.gamma_from_subset(space, subset).g01
        cm = idempotents.CostMatrix(space.labels, rho)
        _require(idempotents.is_idempotent(cm),
                 "generated matrix not idempotent, trial %d", t)
        report = idempotents.factor_through_zero_diagonal(cm)
        _require(report.ok and set(report.zero_diagonal) == set(subset),
                 "generated matrix factors wrongly, trial %d", t)
    return "%d idempotent matrices, %d generated, %d relations" % (
        checked[0], generated, checked[1])


# -- suite 11: pinned fixtures ---------------------------------------------

def singleton_nonsymmetric_fixture():
    """Reflexive, non-symmetric corelation on a one-point space."""
    zero = IntMatrix(1, [(0,)])
    s1 = FinSpace(("*",), zero)
    return corelations.BlockMetric(base=s1, g00=zero, g01=zero,
                                   g10=IntMatrix(1, [(inf,)]), g11=zero)


def twopoint_literal_fixture():
    """The literal two-point matrix: self-distances 0, everything infinite
    except the two cross arcs at 1; exceeds the ambient metric within a
    summand, so it must fail submetric validation."""
    x2 = two_point_space()
    diag = IntMatrix(1, [(0, inf), (inf, 0)])
    return corelations.BlockMetric(
        base=x2, g00=diag, g11=diag,
        g01=IntMatrix(1, [(inf, 1), (inf, inf)]),
        g10=IntMatrix(1, [(inf, inf), (1, inf)]))


def twopoint_corrected_fixture():
    """Min-plus closure of the same generating arcs over in-summand
    distances equal to d; reflexive, non-symmetric, non-transitive."""
    x2 = two_point_space()
    cost = IntMatrix(1, [
        [0, 1, inf, 1],       # (a,0)
        [1, 0, inf, inf],     # (b,0)
        [inf, inf, 0, 1],     # (a,1)
        [1, inf, 1, 0],       # (b,1)
    ])
    return corelations.BlockMetric.from_matrix(x2, minplus_closure(cost))


def suite_pinned_fixtures(seed):
    single = singleton_nonsymmetric_fixture()
    _require(corelations.is_reflexive(single),
             "singleton fixture not reflexive")
    _require(not corelations.is_symmetric(single),
             "singleton fixture unexpectedly symmetric")
    bad = corelations.validate_blockmetric(twopoint_literal_fixture())
    _require(any(v.kind == "above-ambient" and v.points == ("0:a", "0:b")
                 for v in bad),
             "literal fixture missing the within-block witness")
    fixed = twopoint_corrected_fixture()
    _require(not corelations.validate_blockmetric(fixed),
             "corrected fixture is not a valid submetric")
    _require(corelations.is_reflexive(fixed), "corrected fixture not reflexive")
    _require(not corelations.is_symmetric(fixed),
             "corrected fixture unexpectedly symmetric")
    _require(not corelations.is_transitive(fixed),
             "corrected fixture unexpectedly transitive")
    return "singleton + two-point literal/corrected"


SUITES = {
    "metric-laws": suite_metric_laws,
    "factorization": suite_factorization,
    "duality": suite_duality,
    "pushout-formula": suite_pushout_formula,
    "pushout-universal": suite_pushout_universal,
    "embedding-stability": suite_embedding_stability,
    "pullback": suite_pullback,
    "gamma-subset": suite_gamma_subset,
    "effective-exhaustive": suite_effective_exhaustive,
    "idempotence": suite_idempotence,
    "pinned-fixtures": suite_pinned_fixtures,
}


def run_suite(name, seed=0):
    """One CriterionResult for the named suite, or for each suite in
    order when name is "all"."""
    if name != "all" and name not in SUITES:
        raise ValueError("unknown suite %r (known: %s, all)"
                         % (name, ", ".join(SUITES)))
    results = []
    for number, (key, suite) in enumerate(SUITES.items(), 1):
        if name in ("all", key):
            try:
                results.append(CriterionResult(number, key, True, suite(seed)))
            except _Counterexample as exc:
                results.append(CriterionResult(number, key, False, str(exc)))
            except Exception as exc:
                results.append(CriterionResult(
                    number, key, False, "%s: %s" % (type(exc).__name__, exc)))
    return results
