"""Values of [0, inf] in documents: the token grammar, Frozen, and the
ExtValue view.

finmet computes on IntMatrix ints (minplus), and a value enters and
leaves as a canonical token: ratio reads a token to (numerator,
denominator) and token writes x / den back.  ExtValue is what
iterating an IntMatrix gives (is_inf, frac), with no arithmetic, and
parse reads a token to one.  fractions is imported only where an
ExtValue is built, so a CLI call need not import it.

Frozen, the immutable base of every finmet value and record, lives here
at the bottom of the import graph.
"""

from __future__ import annotations

import functools
import re
from math import gcd, inf
from operator import attrgetter


class Frozen:
    """An immutable object whose fields are its class's __slots__.

    A subclass's __init__ sets each slot once through
    object.__setattr__.  == holds between instances of one class with
    equal fields, the hash is that of the fields' tuple, copy and pickle
    rebuild through __init__, and repr reads Name(field=value, ...), as
    for a frozen dataclass.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__slots__
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


class ExtValue(Frozen):
    """A point of [0, inf] as iterating an IntMatrix gives it: a
    non-negative rational in lowest terms, or INF."""

    __slots__ = ("_frac",)

    def __init__(self, frac):
        # frac: Fraction or int >= 0, or None for infinity.
        if frac is not None:
            from fractions import Fraction

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


INF = ExtValue(None)


_TOKEN = re.compile(r"(0|[1-9][0-9]*)(?:/([1-9][0-9]*))?")


def ratio(tok):
    """(p, q) with q >= 1 for the canonical token "p/q" or "p", None for
    "inf"; a ValueError for any other input.

    Only canonical tokens are read: "inf", "0", an integer without sign
    or leading zeros, or "p/q" in lowest terms with q >= 2, so that
    token(p, q) == tok for every accepted tok.
    """
    if not isinstance(tok, str):
        raise ValueError("malformed value token %r" % (tok,))
    return _ratio(tok)


# A document repeats few distinct tokens many times, across matrices
# too, so equal tokens share one read.
@functools.lru_cache(maxsize=4096)
def _ratio(tok):
    if tok == "inf":
        return None
    match = _TOKEN.fullmatch(tok)
    if match is None:
        raise ValueError("malformed value token %r" % (tok,))
    p, q = match.groups()
    if q is None:
        return int(p), 1
    p, q = int(p), int(q)
    if q == 1 or gcd(p, q) != 1:
        raise ValueError("value token %r is not in lowest terms" % (tok,))
    return p, q


def token(x, den):
    """The canonical token of x / den for an int x >= 0, "inf" for
    math.inf."""
    if x == inf:
        return "inf"
    g = gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def parse(tok):
    """The ExtValue of a canonical token "p/q", "p" or "inf", written by
    token(p, q); a ValueError on any other input (see ratio)."""
    r = ratio(tok)
    if r is None:
        return INF
    from fractions import Fraction

    return ExtValue(Fraction(*r))
