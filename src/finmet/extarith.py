"""Exact arithmetic on the extended non-negative reals [0, inf].

Values are exact rationals (via fractions.Fraction) or the single
infinity element.  (min, +) makes this a commutative semiring with
additive identity INF and multiplicative identity 0; + saturates at INF.

Frozen, the immutable base of every finmet value and record, lives here
at the bottom of the import graph.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from operator import attrgetter


class Frozen:
    """An immutable object whose fields are its class's __slots__, unless
    the class declares them: class C(Frozen, fields=("a", "b")).

    A subclass's __init__ sets each slot once through
    object.__setattr__.  == holds between instances of one class with
    equal fields, the hash is that of the fields' tuple, copy and pickle
    rebuild through __init__, and repr reads Name(field=value, ...), as
    for a frozen dataclass.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields=None):
        cls._fields = fields = fields or cls.__slots__
        get = attrgetter(*fields)
        # attrgetter of one name gives the bare value, not a 1-tuple.
        cls._values = (get if len(fields) > 1
                       else staticmethod(lambda obj: (get(obj),)))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


@functools.total_ordering
class ExtValue(Frozen):
    """A point of [0, inf]: a non-negative rational in lowest terms, or INF."""

    __slots__ = ("_frac",)

    def __init__(self, frac):
        # frac: Fraction or int >= 0, or None for infinity.
        if frac is not None:
            if not isinstance(frac, Fraction):
                if not isinstance(frac, int):
                    raise TypeError("ExtValue needs an int or a Fraction, "
                                    "not %r" % (frac,))
                frac = Fraction(frac)
            if frac.numerator < 0:
                raise ValueError("negative value: %s" % frac)
        object.__setattr__(self, "_frac", frac)

    @property
    def is_inf(self):
        return self._frac is None

    @property
    def frac(self):
        """The underlying Fraction; raises on INF."""
        if self._frac is None:
            raise ValueError("infinite value has no finite part")
        return self._frac

    def __lt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

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


_TOKEN = re.compile(r"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def parse(token):
    """Inverse of ExtValue.token(); raises ValueError on any other input.

    Only canonical tokens parse: "inf", "0", an integer without sign or
    leading zeros, or "p/q" in lowest terms with q >= 2, so that
    parse(t).token() == t for every accepted t.
    """
    if not isinstance(token, str):
        raise ValueError("malformed value token %r" % (token,))
    return _parse(token)


# A document repeats few distinct tokens many times, and ExtValue is
# immutable, so equal tokens may share one parsed value.
@functools.lru_cache(maxsize=4096)
def _parse(token):
    if token == "inf":
        return INF
    match = _TOKEN.fullmatch(token)
    if match is None:
        raise ValueError("malformed value token %r" % (token,))
    p, q = match.groups()
    if q is None:
        return ExtValue(Fraction(int(p)))
    denominator = int(q)
    frac = Fraction(int(p), denominator)
    if frac.denominator != denominator or denominator == 1:
        raise ValueError("value token %r is not in lowest terms" % (token,))
    return ExtValue(frac)
