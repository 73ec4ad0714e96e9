"""Exact arithmetic on the extended non-negative reals [0, inf].

Values are exact rationals (via fractions.Fraction) or the single
infinity element.  (min, +) makes this a commutative semiring with
additive identity INF and multiplicative identity 0; + saturates at INF.
"""

from __future__ import annotations

import functools
from fractions import Fraction


@functools.total_ordering
class ExtValue:
    """A point of [0, inf]: a non-negative rational in lowest terms, or INF."""

    __slots__ = ("_frac",)

    def __init__(self, frac):
        # frac: Fraction >= 0, or None for infinity.
        if frac is not None:
            if not isinstance(frac, Fraction):
                frac = Fraction(frac)
            if frac < 0:
                raise ValueError("negative value: %s" % frac)
        object.__setattr__(self, "_frac", frac)

    def __setattr__(self, name, value):
        raise AttributeError("ExtValue is immutable")

    @property
    def is_inf(self):
        return self._frac is None

    @property
    def frac(self):
        """The underlying Fraction; raises on INF."""
        if self._frac is None:
            raise ValueError("infinite value has no finite part")
        return self._frac

    def __eq__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __hash__(self):
        return hash(("ExtValue", self._frac))

    def __add__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        if self._frac is None or other._frac is None:
            return INF
        return ExtValue(self._frac + other._frac)

    def __repr__(self):
        return "ExtValue(%r)" % self.token()

    def token(self):
        """Serialize: "p/q", "p" for integers, "inf" for infinity."""
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return "%d/%d" % (self._frac.numerator, self._frac.denominator)

    __str__ = token


INF = ExtValue(None)
ZERO = ExtValue(Fraction(0))


def fin(numerator, denominator=1):
    """The finite value numerator/denominator as an ExtValue."""
    return ExtValue(Fraction(numerator, denominator))


def parse(token):
    """Inverse of ExtValue.token(); raises ValueError on malformed input."""
    token = token.strip()
    if token == "inf":
        return INF
    if "/" in token:
        p, q = token.split("/", 1)
        try:
            return ExtValue(Fraction(int(p), int(q)))
        except ZeroDivisionError:
            raise ValueError("zero denominator in token %r" % token) from None
    return ExtValue(Fraction(int(token)))


def ext_add(u, v):
    """Saturating sum: INF + v = INF."""
    return u + v


def ext_min(u, v):
    """The smaller value under the total order rationals < INF."""
    return u if u <= v else v


def ext_min_all(values, default=INF):
    """Minimum of an iterable; the empty minimum is INF (the semiring zero)."""
    best = default
    for v in values:
        if v < best:
            best = v
    return best
