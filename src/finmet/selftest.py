"""Named self-test suites: executable statements of the library's
correctness properties, shared by the CLI `selftest` command and the
test suite.

Each suite runs a fixed number of seeded trials and returns a
CriterionResult; a failure carries the first counterexample found.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import corelations, idempotents, pushouts
from .extarith import INF, ZERO, fin
from .harness import (DEFAULT_GRID, GenConfig, brute_iso_check,
                      enumerate_mediators, gen_metric, gen_nonexpansive_map,
                      gen_submetric, gen_subset, gen_surjection)
from .limits import Square, equalizer, is_pullback_square
from .maps import (FinMap, compose, factorize, is_embedding, is_isomorphism,
                   is_surjective, subspace)
from .minplus import minplus_closure
from .quotients import (Submetric, counit_iso, kernel_metric,
                        quotient_by_submetric, quotient_leq,
                        validate_submetric)
from .spaces import FinSpace, is_separated, validate_metric


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str = ""

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        msg = "criterion %2d %-22s %s" % (self.number, self.name, status)
        if self.detail:
            msg += "  (%s)" % self.detail
        return msg


def _seed(base, suite, trial):
    return (base * 1000003 + suite * 10007 + trial) & 0x7FFFFFFFFFFFFFFF


# -- suite 1: metric laws -------------------------------------------------

def suite_metric_laws(seed=0, trials=500):
    for t in range(trials):
        s = _seed(seed, 1, t)
        space = gen_metric(GenConfig(seed=s, max_points=t % 7))
        if validate_metric(space):
            return CriterionResult(1, "metric-laws", False,
                                   "generated space fails axioms at trial %d" % t)
        if not is_separated(space):
            return CriterionResult(1, "metric-laws", False,
                                   "generated space not separated at trial %d" % t)
        rng = random.Random(s ^ 0x5A5A)
        n = t % 7
        cost = [[ZERO if i == j else rng.choice(DEFAULT_GRID)
                 for j in range(n)] for i in range(n)]
        once = minplus_closure(cost)
        if minplus_closure(once) != once:
            return CriterionResult(1, "metric-laws", False,
                                   "closure not idempotent at trial %d" % t)
    return CriterionResult(1, "metric-laws", True, "%d spaces" % trials)


# -- suite 2: factorization -----------------------------------------------

def suite_factorization(seed=0, trials=300, squares=100):
    for t in range(trials):
        rng = random.Random(_seed(seed, 2, t))
        src = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                   max_points=rng.randint(0, 6)))
        tgt = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                   max_points=rng.randint(1, 6)))
        f = gen_nonexpansive_map(src, tgt, rng)
        q, i = factorize(f)
        if compose(q, i).assignment != f.assignment:
            return CriterionResult(2, "factorization", False,
                                   "composite differs at trial %d" % t)
        if not is_surjective(q) or not is_embedding(i):
            return CriterionResult(2, "factorization", False,
                                   "wrong factor class at trial %d" % t)
    for t in range(squares):
        rng = random.Random(_seed(seed, 2, 100000 + t))
        a_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                       max_points=rng.randint(0, 3)))
        e = gen_surjection(a_space, GenConfig(seed=rng.getrandbits(63)))
        d_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                       max_points=rng.randint(1, 3)))
        keep = [lab for lab in d_space.labels if rng.random() < 0.7]
        if not keep:
            keep = list(d_space.labels)
        _, m = subspace(d_space, keep)
        h = gen_nonexpansive_map(e.target, m.source, rng)
        fillers = enumerate_mediators(
            e.target, m.source,
            precompose=[(e, compose(e, h))],
            postcompose=[(m, compose(h, m))])
        if len(fillers) != 1:
            return CriterionResult(2, "factorization", False,
                                   "%d diagonal fillers at square %d"
                                   % (len(fillers), t))
    return CriterionResult(2, "factorization", True,
                           "%d morphisms, %d squares" % (trials, squares))


# -- suite 3: duality ------------------------------------------------------

def suite_duality(seed=0, trials=300, pairs=200):
    for t in range(trials):
        rng = random.Random(_seed(seed, 3, t))
        base = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                    max_points=rng.randint(0, 5)))
        gamma = gen_submetric(base, GenConfig(seed=rng.getrandbits(63)))
        if kernel_metric(quotient_by_submetric(gamma)).gamma != gamma.gamma:
            return CriterionResult(3, "duality", False,
                                   "kernel round trip fails at trial %d" % t)
        f = gen_surjection(base, GenConfig(seed=rng.getrandbits(63)))
        eps = counit_iso(f)
        if not is_isomorphism(eps):
            return CriterionResult(3, "duality", False,
                                   "counit not iso at trial %d" % t)
        p = quotient_by_submetric(kernel_metric(f))
        if compose(p, eps).assignment != f.assignment:
            return CriterionResult(3, "duality", False,
                                   "counit triangle fails at trial %d" % t)
    for t in range(pairs):
        rng = random.Random(_seed(seed, 3, 100000 + t))
        base = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                    max_points=rng.randint(0, 4)))
        f = gen_surjection(base, GenConfig(seed=rng.getrandbits(63)))
        g = gen_surjection(base, GenConfig(seed=rng.getrandbits(63)))
        by_matrix = quotient_leq(f, g)
        kf, kg = kernel_metric(f).gamma, kernel_metric(g).gamma
        pointwise = all(kg[i][j] <= kf[i][j]
                        for i in range(base.n) for j in range(base.n))
        mediators = enumerate_mediators(f.target, g.target, precompose=[(f, g)])
        if not (by_matrix == pointwise == bool(mediators)):
            return CriterionResult(3, "duality", False,
                                   "three-way disagreement at pair %d" % t)
        if mediators and len(mediators) != 1:
            return CriterionResult(3, "duality", False,
                                   "mediator not unique at pair %d" % t)
    return CriterionResult(3, "duality", True,
                           "%d submetrics, %d pairs" % (trials, pairs))


# -- suites 4/5/6: pushouts ------------------------------------------------

def _pushout_instance(seed, max_points=5):
    """An embedding i of a subspace into X plus a map f out of it."""
    rng = random.Random(seed)
    x_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                   max_points=rng.randint(0, max_points)))
    keep = [lab for lab in x_space.labels if rng.random() < 0.6]
    a_space, i = subspace(x_space, keep)
    b_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                   max_points=rng.randint(1, max_points)))
    f = gen_nonexpansive_map(a_space, b_space, rng)
    return i, f


_WORKED_GLUING = {
    "A": FinSpace(("s",), ((ZERO,),)),
    "X": FinSpace(("p", "x"), ((ZERO, fin(1)), (fin(1), ZERO))),
    "B": FinSpace(("q", "b"), ((ZERO, fin(2)), (fin(2), ZERO))),
}


def worked_gluing_fixture():
    """The 3-point gluing instance with hand-checked pushout distances."""
    i = FinMap(_WORKED_GLUING["A"], _WORKED_GLUING["X"], ("p",))
    f = FinMap(_WORKED_GLUING["A"], _WORKED_GLUING["B"], ("q",))
    return i, f


def suite_pushout_formula(seed=0, trials=300):
    for t in range(trials):
        i, f = _pushout_instance(_seed(seed, 4, t))
        result = pushouts.pushout_along_embedding(i, f)
        oracle = pushouts.pushout_closure_oracle(i, f)
        if result.gamma.gamma != oracle.gamma:
            return CriterionResult(4, "pushout-formula", False,
                                   "formula/oracle mismatch at trial %d" % t)
    i, f = worked_gluing_fixture()
    result = pushouts.pushout_along_embedding(i, f)
    g = result.gamma
    expected = (
        (g.value("0:q", "1:x"), fin(1)),
        (g.value("1:x", "0:b"), fin(3)),
        (g.value("0:q", "1:p"), ZERO),
    )
    if any(got != want for got, want in expected):
        return CriterionResult(4, "pushout-formula", False,
                               "worked fixture gamma mismatch")
    p = result.apex
    if p.n != 3 or p.d("[1:x]", "[0:b]") != fin(3) or p.d("[0:b]", "[1:x]") != fin(3) \
            or p.d("[0:q]", "[1:x]") != fin(1) or p.d("[1:x]", "[0:q]") != fin(1):
        return CriterionResult(4, "pushout-formula", False,
                               "worked fixture apex mismatch")
    return CriterionResult(4, "pushout-formula", True,
                           "%d instances + worked fixture" % trials)


def _corrupt_lower(result):
    """Lower one positive apex distance to zero; None if all are zero."""
    apex = result.apex
    for p in range(apex.n):
        for q in range(apex.n):
            if p != q and apex.dist[p][q] > ZERO:
                dist = [list(row) for row in apex.dist]
                dist[p][q] = ZERO
                bad = FinSpace(apex.labels, dist)
                sq = result.square
                square = Square(
                    left=sq.left, top=sq.top,
                    bottom=FinMap(sq.bottom.source, bad, sq.bottom.assignment),
                    right=FinMap(sq.right.source, bad, sq.right.assignment))
                return pushouts.PushoutResult(square=square, gamma=result.gamma)
    return None


def _corrupt_merge(result):
    """Redirect the second apex point onto the first; None if apex < 2 points."""
    apex = result.apex
    if apex.n < 2:
        return None
    gone, into = apex.labels[1], apex.labels[0]
    small, _ = subspace(apex, [lab for lab in apex.labels if lab != gone])

    def fix(m):
        return FinMap(m.source, small,
                      tuple(into if lab == gone else lab for lab in m.assignment))

    sq = result.square
    square = Square(left=sq.left, top=sq.top,
                    bottom=fix(sq.bottom), right=fix(sq.right))
    return pushouts.PushoutResult(square=square, gamma=result.gamma)


def suite_pushout_universal(seed=0, squares=50, cocones=100, corrupted=20):
    for t in range(squares):
        i, f = _pushout_instance(_seed(seed, 5, t), max_points=3)
        result = pushouts.pushout_along_embedding(i, f)
        if not pushouts.verify_pushout_universal(result, trials=cocones,
                                                 seed=_seed(seed, 5, t)):
            return CriterionResult(5, "pushout-universal", False,
                                   "genuine pushout refuted at square %d" % t)
    done = 0
    t = 0
    while done < corrupted and t < corrupted * 50:
        i, f = _pushout_instance(_seed(seed, 5, 100000 + t), max_points=3)
        t += 1
        result = pushouts.pushout_along_embedding(i, f)
        bad = _corrupt_lower(result) if done % 2 == 0 else _corrupt_merge(result)
        if bad is None:
            continue
        if pushouts.verify_pushout_universal(bad, trials=cocones,
                                             seed=_seed(seed, 5, 200000 + t)):
            return CriterionResult(5, "pushout-universal", False,
                                   "corrupted pushout accepted (attempt %d)" % t)
        done += 1
    if done < corrupted:
        return CriterionResult(5, "pushout-universal", False,
                               "could not build %d corrupted squares" % corrupted)
    return CriterionResult(5, "pushout-universal", True,
                           "%d squares x %d cocones, %d corruptions"
                           % (squares, cocones, corrupted))


def suite_embedding_stability(seed=0, trials=300):
    for t in range(trials):
        i, f = _pushout_instance(_seed(seed, 4, t))  # the suite-4 instances
        result = pushouts.pushout_along_embedding(i, f)
        if not is_embedding(result.leg_b):
            return CriterionResult(6, "embedding-stability", False,
                                   "pushed-out leg not embedding at trial %d" % t)
    return CriterionResult(6, "embedding-stability", True, "%d instances" % trials)


# -- suite 7: pullback property -------------------------------------------

def _embedding_pair(seed, max_points=6):
    """Two embeddings out of a common subspace of one generated space."""
    rng = random.Random(seed)
    w = gen_metric(GenConfig(seed=rng.getrandbits(63),
                             max_points=rng.randint(0, max_points)))
    u0 = [lab for lab in w.labels if rng.random() < 0.7]
    u1 = [lab for lab in w.labels if rng.random() < 0.7]
    common = [lab for lab in u0 if lab in u1]
    y0, _ = subspace(w, u0)
    y1, _ = subspace(w, u1)
    x_space, _ = subspace(w, common)
    return (FinMap(x_space, y0, x_space.labels),
            FinMap(x_space, y1, x_space.labels))


def suite_pullback(seed=0, trials=300):
    for t in range(trials):
        f0, f1 = _embedding_pair(_seed(seed, 7, t))
        result = pushouts.pushout_along_embedding(f1, f0)
        if not is_pullback_square(result.square):
            return CriterionResult(7, "pullback", False,
                                   "pushout square not a pullback at trial %d" % t)
        q0, q1, _ = pushouts.cokernel_pair(f0)
        eq = equalizer(q0, q1)
        incl_image = sorted(f0.assignment)
        eq_image = sorted(eq.assignment)
        if incl_image != eq_image or not brute_iso_check(eq.source, f0.source):
            return CriterionResult(7, "pullback", False,
                                   "equalizer round trip fails at trial %d" % t)
    return CriterionResult(7, "pullback", True, "%d embedding pairs" % trials)


# -- suite 8: subset corelations ------------------------------------------

def suite_gamma_subset(seed=0, trials=300):
    for t in range(trials):
        rng = random.Random(_seed(seed, 8, t))
        x_space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                       max_points=rng.randint(0, 6)))
        subset = gen_subset(x_space, rng)
        bm = corelations.gamma_from_subset(x_space, subset)
        if not corelations.is_equivalence(bm):
            return CriterionResult(8, "gamma-subset", False,
                                   "subset corelation not equivalence, trial %d" % t)
        if not corelations.is_effective(bm):
            return CriterionResult(8, "gamma-subset", False,
                                   "subset corelation not effective, trial %d" % t)
        if set(corelations.zero_locus(bm)) != set(subset):
            return CriterionResult(8, "gamma-subset", False,
                                   "zero locus differs from subset, trial %d" % t)
        _, incl = subspace(x_space, subset)
        q0, q1, _ = pushouts.cokernel_pair(incl)
        if corelations.corelation_from_cospan(q0, q1) != bm:
            return CriterionResult(8, "gamma-subset", False,
                                   "cokernel-pair corelation differs, trial %d" % t)
    return CriterionResult(8, "gamma-subset", True, "%d subset pairs" % trials)


# -- suite 9: effectiveness, exhaustively on two points --------------------

def two_point_space(value=None):
    v = fin(1) if value is None else value
    return FinSpace(("a", "b"), ((ZERO, v), (v, ZERO)))


def suite_effective_exhaustive(seed=0):
    x2 = two_point_space()
    survivors = 0
    grid = DEFAULT_GRID
    for entries in itertools.product(grid, repeat=4):
        cross = ((entries[0], entries[1]), (entries[2], entries[3]))
        bm = corelations.BlockMetric(base=x2, g00=x2.dist, g01=cross,
                                     g10=cross, g11=x2.dist)
        if not corelations.is_valid_blockmetric(bm):
            continue
        if not corelations.is_equivalence(bm):
            continue
        survivors += 1
        if not corelations.is_effective(bm):
            return CriterionResult(9, "effective-exhaustive", False,
                                   "non-effective equivalence: cross=%s"
                                   % (cross,))
    if survivors < 3:
        return CriterionResult(9, "effective-exhaustive", False,
                               "only %d equivalence survivors" % survivors)
    return CriterionResult(9, "effective-exhaustive", True,
                           "%d survivors, all effective" % survivors)


# -- suite 10: idempotence lemma ------------------------------------------

_INT_INF = 1 << 30
_INT_GRID = (0, 1, 2, _INT_INF)


def _int_idempotent(rho, n):
    for i in range(n):
        row = rho[i]
        for j in range(n):
            best = _INT_INF
            for k in range(n):
                s = row[k] + rho[k][j]
                if s < best:
                    best = s
            if min(best, _INT_INF) != row[j]:
                return False
    return True


def _int_to_cost(rho, n):
    conv = {0: ZERO, 1: fin(1), 2: fin(2), _INT_INF: INF}
    return idempotents.CostMatrix(
        tuple("p%d" % i for i in range(n)),
        tuple(tuple(conv[rho[i][j]] for j in range(n)) for i in range(n)))


def suite_idempotence(seed=0, generated=200):
    # Exhaustive integer-grid scan with a fast pre-filter; survivors are
    # re-confirmed through the exact-arithmetic route.  The pre-filter
    # scans the 262,144 grid matrices about 18 times faster than the
    # exact route would, and it is a second, independent product.
    checked = 0
    for n in (1, 2, 3):
        for flat in itertools.product(_INT_GRID, repeat=n * n):
            rho = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
            if not _int_idempotent(rho, n):
                continue
            cm = _int_to_cost(rho, n)
            if not idempotents.is_idempotent(cm):
                return CriterionResult(10, "idempotence", False,
                                       "pre-filter disagrees with exact route")
            if not idempotents.factor_through_zero_diagonal(cm).ok:
                return CriterionResult(10, "idempotence", False,
                                       "witness missing for %r" % (rho,))
            checked += 1
    # Pre-filter soundness spot check on random matrices.
    rng = random.Random(_seed(seed, 10, 0))
    for _ in range(2000):
        n = rng.randint(1, 3)
        rho = [[rng.choice(_INT_GRID) for _ in range(n)] for _ in range(n)]
        if _int_idempotent(rho, n) != idempotents.is_idempotent(_int_to_cost(rho, n)):
            return CriterionResult(10, "idempotence", False,
                                   "pre-filter unsound on %r" % (rho,))
    # Generated idempotents via the min-over-subset construction.
    for t in range(generated):
        rng = random.Random(_seed(seed, 10, 1000 + t))
        space = gen_metric(GenConfig(seed=rng.getrandbits(63),
                                     max_points=rng.randint(1, 6)))
        subset = gen_subset(space, rng) or (space.labels[0],)
        rho = corelations.gamma_from_subset(space, subset).g01
        cm = idempotents.CostMatrix(space.labels, rho)
        if not idempotents.is_idempotent(cm):
            return CriterionResult(10, "idempotence", False,
                                   "generated matrix not idempotent, trial %d" % t)
        report = idempotents.factor_through_zero_diagonal(cm)
        if not report.ok or set(report.zero_diagonal) != set(subset):
            return CriterionResult(10, "idempotence", False,
                                   "generated matrix factors wrongly, trial %d" % t)
    # Relational variant: all idempotent boolean relations on <= 4 points.
    rel_checked = 0
    for n in (1, 2, 3, 4):
        labels = tuple("p%d" % i for i in range(n))
        for flat in itertools.product((False, True), repeat=n * n):
            rel = tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
            if idempotents.bool_compose(rel, rel) != rel:
                continue
            relation = idempotents.BoolRelation(labels, rel)
            for i in range(n):
                for j in range(n):
                    if rel[i][j]:
                        w = idempotents.relation_density_witness(
                            relation, labels[i], labels[j])
                        if w is None:
                            return CriterionResult(
                                10, "idempotence", False,
                                "no density witness for %r" % (rel,))
            rel_checked += 1
    return CriterionResult(10, "idempotence", True,
                           "%d idempotent matrices, %d generated, %d relations"
                           % (checked, generated, rel_checked))


# -- suite 11: pinned fixtures ---------------------------------------------

def singleton_nonsymmetric_fixture():
    """Reflexive, non-symmetric corelation on a one-point space."""
    s1 = FinSpace(("*",), ((ZERO,),))
    return corelations.BlockMetric(base=s1, g00=((ZERO,),), g01=((ZERO,),),
                                   g10=((INF,),), g11=((ZERO,),))


def twopoint_literal_fixture():
    """The literal two-point matrix: self-distances 0, everything infinite
    except the two cross arcs at 1; exceeds the ambient metric within a
    summand, so it must fail submetric validation."""
    x2 = two_point_space()
    diag = ((ZERO, INF), (INF, ZERO))
    return corelations.BlockMetric(
        base=x2, g00=diag, g11=diag,
        g01=((INF, fin(1)), (INF, INF)),
        g10=((INF, INF), (fin(1), INF)))


def twopoint_corrected_fixture():
    """Min-plus closure of the same generating arcs over in-summand
    distances equal to d; reflexive, non-symmetric, non-transitive."""
    x2 = two_point_space()
    cost = [
        [ZERO, fin(1), INF, fin(1)],   # (a,0)
        [fin(1), ZERO, INF, INF],      # (b,0)
        [INF, INF, ZERO, fin(1)],      # (a,1)
        [fin(1), INF, fin(1), ZERO],   # (b,1)
    ]
    full = minplus_closure(cost)
    return corelations.BlockMetric(
        base=x2,
        g00=tuple(row[:2] for row in full[:2]),
        g01=tuple(row[2:] for row in full[:2]),
        g10=tuple(row[:2] for row in full[2:]),
        g11=tuple(row[2:] for row in full[2:]))


def suite_pinned_fixtures(seed=0):
    single = singleton_nonsymmetric_fixture()
    if not corelations.is_reflexive(single):
        return CriterionResult(11, "pinned-fixtures", False,
                               "singleton fixture not reflexive")
    if corelations.is_symmetric(single):
        return CriterionResult(11, "pinned-fixtures", False,
                               "singleton fixture unexpectedly symmetric")
    literal = twopoint_literal_fixture()
    bad = corelations.validate_blockmetric(literal)
    witness = [v for v in bad
               if v.kind == "above-ambient" and v.points == ("0:a", "0:b")]
    if not witness:
        return CriterionResult(11, "pinned-fixtures", False,
                               "literal fixture missing the within-block witness")
    fixed = twopoint_corrected_fixture()
    if corelations.validate_blockmetric(fixed):
        return CriterionResult(11, "pinned-fixtures", False,
                               "corrected fixture is not a valid submetric")
    if not corelations.is_reflexive(fixed):
        return CriterionResult(11, "pinned-fixtures", False,
                               "corrected fixture not reflexive")
    if corelations.is_symmetric(fixed):
        return CriterionResult(11, "pinned-fixtures", False,
                               "corrected fixture unexpectedly symmetric")
    if corelations.is_transitive(fixed):
        return CriterionResult(11, "pinned-fixtures", False,
                               "corrected fixture unexpectedly transitive")
    return CriterionResult(11, "pinned-fixtures", True,
                           "singleton + two-point literal/corrected")


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
    if name == "all":
        return [fn(seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError("unknown suite %r (known: %s, all)"
                         % (name, ", ".join(SUITES)))
    return [SUITES[name](seed=seed)]
