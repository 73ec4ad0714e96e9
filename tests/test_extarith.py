"""The token grammar and the ExtValue view that iterating a matrix
gives, and the Fraction reference arithmetic that the tests' reference
loops use in place of arithmetic on values."""

import os
import random
import sys
from fractions import Fraction as F
from math import inf

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.extarith import INF, ExtValue, parse, token
from finmet.minplus import IntMatrix
from finmet.spaces import FinSpace, Submetric
from reference import add, le, least


def test_token_round_trip_basics():
    assert parse("inf") == INF
    assert parse("0") == ExtValue(0)
    assert parse("3/2") == ExtValue(F(3, 2))
    assert token(3, 2) == "3/2"
    assert token(4, 2) == "2"
    assert token(inf, 1) == "inf"


def test_token_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        if rng.random() < 0.1:
            v, tok = INF, token(inf, 1)
        else:
            p, q = rng.randrange(0, 1000), rng.randrange(1, 60)
            v, tok = ExtValue(F(p, q)), token(p, q)
        assert parse(tok) == v


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExtValue(-1)
    with pytest.raises(ValueError):
        ExtValue(F(-1, 2))
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
    assert ExtValue(3) == ExtValue(F(3))


def test_inf_absorbs_addition():
    assert add(None, 3) is None
    assert add(3, None) is None
    assert add(None, None) is None


def test_order_total_with_top():
    vals = [0, F(1, 3), F(1, 2), 1, F(7, 2), None]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            assert le(a, b) == (i <= j)
            assert (not le(b, a)) == (i < j)


def test_min_and_empty_min():
    assert least(2, 3) == 2
    assert least(None, 3) == 3
    assert least(3, None) == 3
    assert least(None, None) is None


def test_exactness_no_drift():
    # 1/3 summed three times is exactly 1, not approximately
    third = F(1, 3)
    assert add(add(third, third), third) == 1
    assert type(add(add(third, third), third)) is F


def test_semiring_laws_sampled():
    rng = random.Random(23)
    pool = [None] + [F(rng.randrange(0, 20), rng.randrange(1, 7))
                     for _ in range(30)]
    for _ in range(800):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert least(a, b) == least(b, a)
        assert least(a, least(b, c)) == least(least(a, b), c)
        assert add(a, least(b, c)) == least(add(a, b), add(a, c))
        assert least(a, None) == a
        assert add(a, 0) == a


def test_value_view_has_no_arithmetic():
    """ExtValue is what iterating a matrix gives; it neither adds nor
    orders, and no reader takes an index or a point label."""
    with pytest.raises(TypeError):
        ExtValue(1) + ExtValue(2)
    with pytest.raises(TypeError):
        ExtValue(1) < ExtValue(2)
    with pytest.raises(TypeError):
        min(INF, ExtValue(3))
    assert not hasattr(IntMatrix, "__getitem__")
    assert not hasattr(FinSpace, "d") and not hasattr(Submetric, "value")
    assert not hasattr(ExtValue, "token")
    rows = tuple(IntMatrix(2, [[0, 1], [inf, 4]]))
    assert rows == ((ExtValue(0), ExtValue(F(1, 2))), (INF, ExtValue(2)))
    assert rows[1][0].is_inf and not rows[1][1].is_inf
    assert rows[0][1].frac == F(1, 2) and rows[1][1].frac == 2


def test_is_inf_flag():
    assert INF.is_inf
    assert not ExtValue(5).is_inf
    assert isinstance(parse("7"), ExtValue)
