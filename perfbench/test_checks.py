"""Each check accepts a right output and rejects the same output with one
planted wrong entry, so that no check passes vacuously.

Run with `python3 -m pytest perfbench/test_checks.py` or as a script.
"""

import copy
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import Cli, sections  # noqa: E402

F = Fraction


def planted(m, i, j, value):
    out = copy.deepcopy(m)
    out[i][j] = value
    return out


def bump(v):
    return F(1) if v is None else v + F(1, 3)


def space(n, seed=0):
    return gen.space(gen.rng_for("test", seed, n), n, 0.25, gen.halves(n))


def labels(n, prefix="p"):
    return gen.labels(prefix, n)


def test_closure_matches_hand_computed_paths():
    inf = None
    raw = [[F(0), F(1), inf], [inf, F(0), F(1, 2)], [F(2), inf, F(0)]]
    want = [[F(0), F(1), F(3, 2)], [F(5, 2), F(0), F(1, 2)],
            [F(2), F(3), F(0)]]
    assert checks.closure(raw) == want
    assert checks.check_matrix(want, checks.closure(raw)) is None
    assert checks.check_matrix(planted(want, 1, 0, F(2)), want)


def test_generated_sizes_are_exact_and_separated():
    for n in (1, 5, 24, 40):
        d = space(n)
        assert len(d) == n
        assert checks.metric_violations(d) == 0
        assert all(d[i][j] != 0 for i in range(n) for j in range(n) if i != j)
        # the blocked half keeps its infinite entries after closure
        assert d[n - 1][0] is None or n == 1


def test_metric_validity():
    d = space(6)
    assert checks.check_metric_valid(d, True) is None
    assert checks.check_metric_valid(planted(d, 0, 1, F(100)), True)
    assert checks.check_metric_valid(planted(d, 2, 2, F(1)), True)


def test_product():
    d1, d2 = space(4, 1), space(3, 2)
    l1, l2 = labels(4, "a"), labels(3, "b")
    pairs = [(a, b) for a in l1 for b in l2]
    p1, p2 = [a for a, _ in pairs], [b for _, b in pairs]
    i1 = {lab: k for k, lab in enumerate(l1)}
    i2 = {lab: k for k, lab in enumerate(l2)}
    dist = [[checks.vmax(d1[i1[a]][i1[c]], d2[i2[b]][i2[e]])
             for (c, e) in pairs] for (a, b) in pairs]
    assert checks.check_product(d1, l1, d2, l2, dist, p1, p2) is None
    assert checks.check_product(d1, l1, d2, l2,
                                planted(dist, 2, 7, bump(dist[2][7])), p1, p2)
    assert checks.check_product(d1, l1, d2, l2, dist, p1[:-1] + [p1[0]], p2)


def test_coproduct():
    d1, d2 = space(3, 1), space(2, 2)
    pts = ["0:%d" % k for k in range(3)] + ["1:%d" % k for k in range(2)]
    dist = checks.coproduct(d1, d2)
    assert checks.check_coproduct(d1, d2, pts, dist, pts[:3], pts[3:]) is None
    assert checks.check_coproduct(d1, d2, pts, planted(dist, 0, 4, F(1)),
                                  pts[:3], pts[3:])
    assert checks.check_coproduct(d1, d2, pts, dist, pts[:2] + pts[3:4],
                                  pts[3:])


def test_quotient_duality():
    d = space(8, 3)
    gamma = gen.coarser_submetric(gen.rng_for("q"), d, [0, 0, 1, 1, 2, 2, 3, 3])
    cls, qd = gen.quotient(gamma)
    qlab = labels(len(qd), "c")
    proj = [qlab[c] for c in cls]
    assert checks.check_quotient(gamma, qlab, qd, proj) is None
    assert checks.check_quotient(gamma, qlab, planted(qd, 0, 1, bump(qd[0][1])),
                                 proj)
    assert checks.check_quotient(gamma, qlab, qd, [qlab[1]] + proj[1:])


def test_pushout_reference_glues_and_closes():
    b = [[F(0), F(2)], [F(2), F(0)]]
    x = [[F(0), F(1)], [F(1), F(0)]]
    gamma = checks.glued_closure(b, x, [(0, 0)])
    # the worked gluing: q ~ p, so d(b, x) = 2 + 0 + 1
    assert gamma[1][3] == F(3) and gamma[0][3] == F(1) and gamma[0][2] == 0
    assert checks.check_matrix(planted(gamma, 1, 3, F(2)), gamma)


def test_subset_blocks():
    d = space(6, 4)
    idx = [1, 4]
    cross = checks.subset_cross(d, idx)
    blocks = [d, cross, cross, d]
    assert checks.check_blocks(d, idx, blocks) is None
    bad = [d, planted(cross, 2, 3, bump(cross[2][3])), cross, d]
    assert checks.check_blocks(d, idx, bad)


def factor_output(rho, lab):
    zd = checks.zero_diagonal(rho)
    witnesses = {}
    for x in range(len(rho)):
        for y in range(len(rho)):
            witnesses[(lab[x], lab[y])] = next(
                (lab[a] for a in zd
                 if rho[x][y] is not None
                 and checks.add(rho[x][a], rho[a][y]) == rho[x][y]), None)
    return [lab[a] for a in zd], witnesses


def test_idempotent_factoring():
    d = space(7, 5)
    rho = checks.subset_cross(d, [0, 3, 5])
    lab = labels(7)
    zd, witnesses = factor_output(rho, lab)
    assert checks.check_idempotent(rho, True) is None
    # p1, p2 are off the zero diagonal, so a zero entry between them
    # is below every route through a third point
    assert checks.check_idempotent(planted(rho, 1, 2, F(0)), True)
    assert checks.check_factor(rho, lab, zd, witnesses, ()) is None
    pair = next(k for k, w in witnesses.items() if w is not None
                and k[0] != k[1])
    off_diagonal = next(lab_ for lab_ in lab if lab_ not in zd)
    assert checks.check_factor(rho, lab, zd,
                               {**witnesses, pair: off_diagonal}, ())
    assert checks.check_factor(rho, lab, zd[:-1], witnesses, ())


def test_map_checks():
    ds = space(4, 6)
    assign = [0, 0, 1, 1]
    dt = gen.capped_target(gen.rng_for("t"), 3, ds, [assign])
    assert checks.check_nonexpansive(ds, dt, assign, True) is None
    assert checks.check_nonexpansive(ds, planted(dt, 0, 1, F(99)), assign, True)
    tl = labels(3, "y")
    image = [tl[0], tl[1]]
    src = [tl[k] for k in assign]
    sub = checks.restrict(dt, [0, 1])
    assert checks.check_factorize(src, tl, dt, image, sub, src, image) is None
    assert checks.check_factorize(src, tl, dt, image,
                                  planted(sub, 0, 1, bump(sub[0][1])), src, image)
    kern = checks.kernel(dt, assign)
    assert checks.check_matrix(kern, checks.kernel(dt, assign)) is None
    assert checks.check_quotient_leq(kern, kern, True) is None
    assert checks.check_quotient_leq(kern, planted(kern, 0, 2, F(99)), True)


def test_equalizer_and_submetric():
    d = space(5, 7)
    lab = labels(5, "u")
    g1, g2 = [0, 1, 2, 0, 1], [0, 2, 2, 1, 1]
    keep = [0, 2, 4]
    sub = checks.restrict(d, keep)
    incl = [lab[k] for k in keep]
    assert checks.check_equalizer(lab, d, g1, g2, incl, sub) is None
    assert checks.check_equalizer(lab, d, g1, g2, incl,
                                  planted(sub, 1, 2, bump(sub[1][2])))
    assert checks.check_equalizer(lab, d, g1, g2, incl[:2], sub)
    gamma = gen.coarser_submetric(gen.rng_for("g"), d, [0, 0, 1, 2, 2])
    assert checks.check_submetric_valid(d, gamma, True) is None
    assert checks.check_submetric_valid(d, planted(gamma, 3, 4, F(99)), True)


def test_corelations():
    d = space(5, 8)
    lab = labels(5)
    cross = checks.subset_cross(d, [1, 3])
    blocks = [d, cross, cross, d]
    laws = (True, True, True, True)
    assert checks.check_corelation(d, blocks, laws) is None
    assert checks.check_corelation(d, [d, planted(cross, 0, 1, F(0)),
                                       cross, d], laws)
    assert checks.check_effective(d, lab, blocks, ["p1", "p3"], True) is None
    assert checks.check_effective(d, lab, blocks, ["p1"], True)
    assert checks.check_effective(d, lab, [d, cross, planted(
        cross, 2, 0, bump(cross[2][0])), d], ["p1", "p3"], True)


def test_relation_witness():
    rel = gen.preorder(gen.rng_for("r"), 3, 0.0)
    rel[0][1] = rel[1][2] = rel[0][2] = True
    lab = labels(3, "r")
    assert checks.check_relation_witness(rel, lab, "r0", "r2", "r1") is None
    assert checks.check_relation_witness(planted(rel, 1, 2, False), lab,
                                         "r0", "r2", "r1")


def test_cli_text_and_error_readers():
    text = ("apex:\n  points: [a] [b]\n  dist:\n    0 1/2\n    inf 0\n"
            "leg from f:\n  x -> [a]\n  y -> [b]\n")
    apex, leg = sections(text)
    assert apex["points"] == ["[a]", "[b]"]
    assert apex["rows"] == [[F(0), F(1, 2)], [None, F(0)]]
    assert leg["map"] == [("x", "[a]"), ("y", "[b]")]
    assert Cli._check_error(2, "", "error: bad token\n") is None
    assert Cli._check_error(1, "", "Traceback\nZeroDivisionError: x\n")
    assert Cli._check_error(0, "apex:\n", "")


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for fn in tests:
        fn()
    print("%d check tests passed" % len(tests))
