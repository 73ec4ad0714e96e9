import random
from fractions import Fraction

import pytest

from finmet.extarith import INF, ExtValue, fin, parse


def test_token_round_trip_basics():
    assert parse("inf") == INF
    assert parse("0") == fin(0)
    assert parse("3/2") == fin(3, 2)
    assert fin(3, 2).token() == "3/2"
    assert fin(4, 2).token() == "2"
    assert INF.token() == "inf"


def test_token_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        if rng.random() < 0.1:
            v = INF
        else:
            v = fin(rng.randrange(0, 1000), rng.randrange(1, 60))
        assert parse(v.token()) == v


def test_negative_rejected():
    with pytest.raises(ValueError):
        fin(-1)
    with pytest.raises(ValueError):
        parse("-1/2")


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        parse("1/0")


@pytest.mark.parametrize("token", ["+1", "1_0", " 1", "1 ", "01", "2/4",
                                   "1/1", "0/5", "0/1", "1/02", "\u0661", 0,
                                   1.5, None])
def test_non_canonical_token_rejected(token):
    with pytest.raises(ValueError):
        parse(token)


def test_non_rational_value_rejected():
    with pytest.raises(TypeError):
        ExtValue(0.1)
    with pytest.raises(TypeError):
        ExtValue("1")
    assert ExtValue(3) == fin(3)


def test_inf_absorbs_addition():
    assert INF + fin(3) == INF
    assert fin(3) + INF == INF
    assert INF + INF == INF


def test_order_total_with_top():
    vals = [fin(0), fin(1, 3), fin(1, 2), fin(1), fin(7, 2), INF]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            assert (a <= b) == (i <= j)
            assert (a < b) == (i < j)


def test_min_and_empty_min():
    assert min(fin(2), fin(3)) == fin(2)
    assert min(INF, fin(3)) == fin(3)


def test_exactness_no_drift():
    # 1/3 summed three times is exactly 1, not approximately
    third = fin(1, 3)
    assert third + third + third == fin(1)
    assert (third + third + third)._frac == Fraction(1)


def test_semiring_laws_sampled():
    rng = random.Random(23)
    pool = [INF] + [fin(rng.randrange(0, 20), rng.randrange(1, 7))
                    for _ in range(30)]
    for _ in range(800):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert min(a, b) == min(b, a)
        assert min(a, min(b, c)) == min(min(a, b), c)
        assert a + min(b, c) == min(a + b, a + c)
        assert min(a, INF) == a
        assert a + fin(0) == a


def test_is_inf_flag():
    assert INF.is_inf
    assert not fin(5).is_inf
    assert isinstance(parse("7"), ExtValue)
