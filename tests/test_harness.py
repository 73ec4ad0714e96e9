import hashlib
import random

import pytest

from finmet.extarith import fin
from finmet.harness import (_GRID, MEDIATOR_CAP, GenConfig, brute_iso_check,
                            enumerate_mediators, gen_metric,
                            gen_nonexpansive_map, gen_submetric,
                            gen_surjection, sample_cost_below)
from finmet.maps import is_nonexpansive, is_surjective
from finmet.quotients import validate_submetric
from finmet.spaces import FinSpace, is_separated, validate_metric


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
        cost = sample_cost_below(sp, rng)
        for i in range(sp.n):
            for j in range(sp.n):
                assert cost[i][j] <= sp.dist[i][j]
            assert cost[i][i] == fin(0)


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
    big = FinSpace(labels, [[fin(0) if i == j else fin(1) for j in range(6)]
                            for i in range(6)])
    with pytest.raises(ValueError, match="exceeds cap"):
        enumerate_mediators(big, big)


def test_brute_iso_check_relabelling():
    sp = gen_metric(GenConfig(seed=9, max_points=4))
    shuffled_labels = tuple(reversed(sp.labels))
    perm = [sp.index(lab) for lab in shuffled_labels]
    dist = tuple(tuple(sp.dist[i][j] for j in perm) for i in perm)
    other = FinSpace(shuffled_labels, dist)
    assert brute_iso_check(sp, other)
    # changing one distance breaks the isomorphism
    if sp.n >= 2 and sp.dist[0][1] != fin(99):
        rows = [list(r) for r in sp.dist]
        rows[0][1] = fin(99)
        assert not brute_iso_check(FinSpace(sp.labels, rows), sp)


def test_grid_contains_anchor_values():
    assert fin(0) in _GRID[0] and fin(1) in _GRID[0]


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
        for row in matrix:
            put(*(v.token() for v in row))

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
