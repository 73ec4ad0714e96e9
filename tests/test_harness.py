import hashlib
import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.harness import (_GRID, MEDIATOR_CAP, GenConfig, brute_iso_check,
                            enumerate_mediators, gen_metric,
                            gen_nonexpansive_map, gen_submetric,
                            gen_surjection, sample_cost_below)
from finmet.maps import FinMap, compose, is_nonexpansive, is_surjective
from finmet.minplus import IntMatrix
from finmet.quotients import validate_submetric
from finmet.spaces import FinSpace, is_separated, validate_metric
from reference import fracs, le, matrix


def test_gen_metric_deterministic():
    a = gen_metric(GenConfig(seed=42, max_points=5))
    b = gen_metric(GenConfig(seed=42, max_points=5))
    assert a == b
    c = gen_metric(GenConfig(seed=43, max_points=5))
    assert a != c  # overwhelmingly likely for the fixed grid


def test_gen_metric_always_valid_and_separated():
    for seed in range(300):
        sp = gen_metric(GenConfig(seed=seed, max_points=6))
        assert validate_metric(sp) == []
        assert is_separated(sp)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(max_points=-1)


def test_sample_cost_below_stays_below():
    rng = random.Random(1)
    for seed in range(50):
        sp = gen_metric(GenConfig(seed=seed, max_points=5))
        cost, d = fracs(sample_cost_below(sp, rng)), fracs(sp.dist)
        for i in range(sp.n):
            for j in range(sp.n):
                assert le(cost[i][j], d[i][j])
            assert cost[i][i] == 0


def test_gen_submetric_valid():
    for seed in range(100):
        sp = gen_metric(GenConfig(seed=seed, max_points=5))
        sm = gen_submetric(sp, seed + 1000)
        assert not validate_submetric(sm.base, sm.gamma)


def test_gen_surjection_surjective_nonexpansive():
    for seed in range(100):
        sp = gen_metric(GenConfig(seed=seed, max_points=5))
        q = gen_surjection(sp, seed + 2000)
        assert is_surjective(q) and is_nonexpansive(q)
        assert is_separated(q.target)


def test_gen_nonexpansive_map_total_on_nonempty_target():
    rng = random.Random(5)
    for seed in range(100):
        src = gen_metric(GenConfig(seed=seed, max_points=4))
        tgt = gen_metric(GenConfig(seed=seed + 5000, max_points=4))
        f = gen_nonexpansive_map(src, tgt, rng)
        if tgt.n == 0 and src.n > 0:
            assert f is None
        else:
            assert f is not None and is_nonexpansive(f)


def test_enumerate_mediators_cap():
    assert 6 ** 6 > MEDIATOR_CAP
    labels = tuple("p%d" % i for i in range(6))
    big = FinSpace(labels, IntMatrix(1, [[0 if i == j else 1
                                          for j in range(6)]
                                         for i in range(6)]))
    with pytest.raises(ValueError, match="exceeds cap"):
        enumerate_mediators(big, big)


def reference_mediators(source, target, precompose=(), postcompose=()):
    """enumerate_mediators by building every map: each assignment in
    itertools.product order becomes a FinMap, kept when it is
    non-expansive and both kinds of composite equal their wants."""
    out = []
    for assignment in itertools.product(target.labels, repeat=source.n):
        h = FinMap(source, target, assignment)
        if not is_nonexpansive(h):
            continue
        if any(compose(j, h).assignment != want.assignment
               for j, want in precompose):
            continue
        if any(compose(h, p).assignment != want.assignment
               for p, want in postcompose):
            continue
        out.append(h)
    return out


def _any_map(rng, source, target):
    """A map source -> target with seeded, not necessarily
    non-expansive, images."""
    return FinMap(source, target,
                  [rng.choice(target.labels) for _ in source.labels])


def test_enumerate_mediators_matches_building_every_map():
    """On seeded small instances with both constraint kinds, the
    constraint-first search returns the same maps, in the same order, as
    the filter that builds every map.  Each want is the composite of a
    seeded map (satisfiable) or a seeded map itself (mostly not), and
    sometimes a map out of the wrong space, whose length differs."""
    found = 0
    for seed in range(150):
        rng = random.Random(seed + 17000)
        src = gen_metric(GenConfig(seed=seed, max_points=rng.randint(0, 4)))
        tgt = gen_metric(GenConfig(seed=seed + 19000,
                                   max_points=rng.randint(1, 4)))
        if src.n and tgt.n ** src.n > MEDIATOR_CAP:
            continue
        h = _any_map(rng, src, tgt)
        pre, post = [], []
        for _ in range(rng.randint(0, 2)):
            w = gen_metric(GenConfig(seed=rng.getrandbits(32),
                                     max_points=rng.randint(1, 3)))
            if not src.n:
                break
            j = _any_map(rng, w, src)
            want = (compose(j, h) if rng.random() < 0.6
                    else _any_map(rng, w, tgt) if rng.random() < 0.8
                    else _any_map(rng, tgt, tgt))
            pre.append((j, want))
        for _ in range(rng.randint(0, 2)):
            v = gen_metric(GenConfig(seed=rng.getrandbits(32),
                                     max_points=rng.randint(1, 3)))
            p = _any_map(rng, tgt, v)
            want = (compose(h, p) if rng.random() < 0.6
                    else _any_map(rng, src, v) if rng.random() < 0.8
                    else _any_map(rng, v, v))
            post.append((p, want))
        got = enumerate_mediators(src, tgt, pre, post)
        assert got == reference_mediators(src, tgt, pre, post), seed
        found += len(got)
    assert found > 100


def test_enumerate_mediators_refuses_maps_that_do_not_meet():
    sp = gen_metric(GenConfig(seed=3, max_points=3))
    other = FinSpace(("z",), IntMatrix(1, [(0,)]))
    stray = FinMap(other, other, ("z",))
    meeting = FinMap(other, sp, (sp.labels[0],))
    for pre, post in (([(stray, stray)], []), ([], [(stray, stray)]),
                      ([(meeting, meeting)], [(stray, stray)])):
        with pytest.raises(ValueError, match="differs from source"):
            enumerate_mediators(sp, sp, pre, post)
        with pytest.raises(ValueError, match="differs from source"):
            reference_mediators(sp, sp, pre, post)


def test_brute_iso_check_relabelling():
    sp = gen_metric(GenConfig(seed=9, max_points=4))
    shuffled_labels = tuple(reversed(sp.labels))
    perm = [sp.index(lab) for lab in shuffled_labels]
    other = FinSpace(shuffled_labels, sp.dist.sub(perm, perm))
    assert brute_iso_check(sp, other)
    # changing one distance breaks the isomorphism
    rows = fracs(sp.dist)
    if sp.n >= 2 and rows[0][1] != 99:
        rows[0][1] = 99
        assert not brute_iso_check(FinSpace(sp.labels, matrix(rows)), sp)


def test_grid_contains_anchor_values():
    assert 0 in fracs(_GRID)[0] and 1 in fracs(_GRID)[0]


# _draws_digest() as the generators gave it when they drew ExtValue
# grids; drawing the same indices on ints must keep every instance.
PINNED_DRAWS = (
    "48fa88dc50ff78af057c9b0a511ece286fa2719b03097bbdcebf959b615bd57a")


def _draws_digest():
    """sha256 over the tokens and labels that gen_metric,
    sample_cost_below and gen_surjection give on fixed seeds."""
    h = hashlib.sha256()

    def put(*parts):
        h.update(("|".join(parts) + "\n").encode())

    def put_matrix(matrix):
        for row in matrix.tokens():
            put(*row)

    for seed in range(120):
        sp = gen_metric(GenConfig(seed=seed, max_points=seed % 8))
        put(*sp.labels)
        put_matrix(sp.dist)
        put_matrix(sample_cost_below(sp, random.Random(seed + 7000)))
        q = gen_surjection(sp, seed + 9000)
        put(*q.assignment)
        put(*q.target.labels)
        put_matrix(q.target.dist)
    return h.hexdigest()


def test_generator_draws_are_pinned():
    """The generators draw the same instances from the same seeds; a
    change of representation must not change any of them."""
    assert _draws_digest() == PINNED_DRAWS


# _maps_digest() as gen_nonexpansive_map gave it when each attempt drew
# target labels and was tested as a FinMap; drawing target indices must
# keep every map and every draw.
PINNED_MAPS = (
    "cfc179adf1ab43a69f4cec778ab4d38c3ec9319178eb90146b528bea1e2b016a")


def _maps_digest():
    """sha256 over the maps gen_nonexpansive_map draws on fixed seeds,
    three per pair of spaces, each followed by a draw of the same rng.

    The pairs take in empty sources and targets, and targets on which
    every attempt fails, so that the constant fallback is drawn too.
    """
    h = hashlib.sha256()

    def put(*parts):
        h.update(("|".join(parts) + "\n").encode())

    for seed in range(200):
        rng = random.Random(seed + 11000)
        src = gen_metric(GenConfig(seed=seed, max_points=seed % 7))
        tgt = gen_metric(GenConfig(seed=seed + 13000,
                                   max_points=(seed // 7) % 7))
        for _ in range(3):
            f = gen_nonexpansive_map(src, tgt, rng)
            put("none") if f is None else put(*f.assignment)
            put(str(rng.getrandbits(32)))
    return h.hexdigest()


def test_nonexpansive_map_draws_are_pinned():
    """gen_nonexpansive_map draws the same maps, with the same number of
    draws, from the same seeds."""
    assert _maps_digest() == PINNED_MAPS
