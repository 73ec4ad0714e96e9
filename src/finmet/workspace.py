"""The fixture file format: one JSON document holding named objects of
every kind, each entry tagged with its kind.

Every kind is a labelled matrix of some sort, so one table says how
each is read and written, and what contract an object of the kind
must meet.  Matrices are row-major lists of lists of value tokens
("p/q", "p", or "inf"), except a relation's, whose cells are 1 where
related and 0 elsewhere; it loads as its cost matrix over {0, inf}.
Serialization round-trips bit-exactly because tokens are canonical.
Tokens are read straight to an IntMatrix's ints over one common
denominator and written back from them (extarith.ratio and token).

The loader builds every object of the document, from the records in
spaces, so an entry of the wrong shape is refused whichever object a
command reads; it checks only that shape.  A contract is checked when
its object is first asked for, and its validator module is imported
then.  `Workspace.get` (so `ws.space`, `ws.map`, ...) hands out only
objects that meet it.
"""

from __future__ import annotations

import json
from functools import partialmethod
from itertools import chain
from math import inf, lcm

from . import extarith
from .minplus import IntMatrix
from .spaces import (BlockMetric, CostMatrix, FinMap, FinSpace, Submetric,
                     raise_first_violation, validate_metric)

BLOCKS = ("g00", "g01", "g10", "g11")


def _list(entry, key, ok, what):
    """entry[key], once it is a list whose items all pass ok; a ValueError
    otherwise."""
    value = entry.get(key)
    if not (isinstance(value, list) and all(ok(v) for v in value)):
        raise ValueError("%s %r: field %r must be %s"
                         % (entry["kind"], entry["name"], key, what))
    return value


def _strings(entry, key):
    return tuple(_list(entry, key, lambda s: isinstance(s, str),
                       "a list of strings"))


def _matrix(entry, key):
    """The tokens as an IntMatrix over the lcm of their denominators.

    Each distinct token is read once, in the order of first occurrence,
    so an error names the first bad token in row-major order."""
    rows = _list(entry, key, lambda row: isinstance(row, list),
                 "a list of lists")
    tokens = list(chain.from_iterable(rows))
    if not set(map(type, tokens)) <= {str}:
        # A list or object cannot key a dict; reading in order stops at
        # the first bad token, at the latest at the first non-string.
        for tok in tokens:
            extarith.ratio(tok)
    ratios = {tok: extarith.ratio(tok) for tok in dict.fromkeys(tokens)}
    den = lcm(*[r[1] for r in ratios.values() if r is not None])
    ints = {tok: inf if r is None else r[0] * (den // r[1])
            for tok, r in ratios.items()}.__getitem__
    return IntMatrix(den, [tuple(map(ints, row)) for row in rows])


def _cells(entry, key):
    """The 0/1 cells as an IntMatrix: 0 for a 1 cell, INF for a 0 cell."""
    rows = _list(entry, key, lambda row: isinstance(row, list) and all(
        type(c) is int and c in (0, 1) for c in row),
        "a list of lists of 0 and 1")
    return IntMatrix(1, [[0 if c else inf for c in row] for row in rows])


def matrix_tokens(matrix):
    """The IntMatrix as rows of tokens, each distinct int written once."""
    den = matrix.den
    tok = {x: extarith.token(x, den)
           for x in set(chain.from_iterable(matrix.rows))}.__getitem__
    return [list(map(tok, row)) for row in matrix.rows]


# The contract checks of the kinds whose validator lives outside spaces.
# Each imports it when it runs, so a call that checks no object of the
# kind does not pay for importing it.

def _check_map(f, spaces):
    from .maps import check_nonexpansive

    return spaces(f.source, f.target) + check_nonexpansive(f)


def _check_submetric(sm, spaces):
    from .quotients import validate_submetric

    return spaces(sm.base) + validate_submetric(sm.base, sm.gamma)


def _check_blockmetric(bm, spaces):
    from .corelations import validate_blockmetric

    return spaces(bm.base) + validate_blockmetric(bm)


# kind -> (load(entry, ws), dump(obj, space_name), check(obj, spaces)).
# dump gives the fields besides kind and name, and names each space it
# refers to through space_name.  check lists the violations of the
# kind's contract, starting with those of each distinct space the
# object is built on, which spaces(*sps) gives.  The order is the load
# order, spaces first, because every other kind may name a space
# declared anywhere in the document; it is also the dump order.
TABLE = {
    "space": (
        lambda e, ws: FinSpace(_strings(e, "points"), _matrix(e, "dist")),
        lambda sp, space_name: {"points": list(sp.labels),
                                "dist": matrix_tokens(sp.dist)},
        lambda sp, spaces: validate_metric(sp)),
    "map": (
        lambda e, ws: FinMap(ws.lookup("space", e.get("source")),
                             ws.lookup("space", e.get("target")),
                             _strings(e, "assignment")),
        lambda f, space_name: {"source": space_name(f.source),
                               "target": space_name(f.target),
                               "assignment": list(f.assignment)},
        _check_map),
    "submetric": (
        lambda e, ws: Submetric(ws.lookup("space", e.get("base")),
                                _matrix(e, "matrix")),
        lambda sm, space_name: {"base": space_name(sm.base),
                                "matrix": matrix_tokens(sm.gamma)},
        _check_submetric),
    "blockmetric": (
        lambda e, ws: BlockMetric(ws.lookup("space", e.get("base")),
                                  *(_matrix(e, b) for b in BLOCKS)),
        lambda bm, space_name: {"base": space_name(bm.base), **{
            b: matrix_tokens(getattr(bm, b)) for b in BLOCKS}},
        _check_blockmetric),
    "costmatrix": (
        lambda e, ws: CostMatrix(_strings(e, "points"), _matrix(e, "matrix")),
        lambda cm, space_name: {"points": list(cm.labels),
                                "matrix": matrix_tokens(cm.rho)},
        lambda obj, spaces: []),
    "relation": (
        lambda e, ws: CostMatrix(_strings(e, "points"), _cells(e, "rel")),
        lambda r, space_name: {"points": list(r.labels),
                               "rel": [[int(x == 0) for x in row]
                                       for row in r.rho.rows]},
        lambda obj, spaces: []),
}
KINDS = tuple(TABLE)


class Workspace:
    """Named objects of every kind: objects[kind][name], and the
    violations of each object's contract once they have been asked for."""

    def __init__(self):
        self.objects = {k: {} for k in KINDS}
        self._checked = {}

    def lookup(self, kind, name):
        """The named object, whether or not it meets its contract."""
        table = self.objects[kind]
        if not isinstance(name, str) or name not in table:
            raise ValueError("no %s named %r in workspace" % (kind, name))
        return table[name]

    def violations(self, kind, name):
        """The violations of the named object's contract; empty means it
        meets it.  Computed on the first ask and kept."""
        key = (kind, name)
        if key not in self._checked:
            obj = self.lookup(kind, name)
            self._checked[key] = TABLE[kind][2](obj, self._space_violations)
        return self._checked[key]

    def _space_violations(self, *spaces):
        names = {id(sp): name for name, sp in self.objects["space"].items()}
        return [v for name in dict.fromkeys(names[id(sp)] for sp in spaces)
                for v in self.violations("space", name)]

    def get(self, kind, name):
        """The named object, once it meets its contract; a ValueError
        naming the first violation otherwise."""
        raise_first_violation("%s %s is invalid" % (kind, name),
                              self.violations(kind, name))
        return self.objects[kind][name]

    space = partialmethod(get, "space")
    map = partialmethod(get, "map")
    submetric = partialmethod(get, "submetric")
    blockmetric = partialmethod(get, "blockmetric")
    costmatrix = partialmethod(get, "costmatrix")
    relation = partialmethod(get, "relation")


def load_workspace(doc):
    """Build a Workspace from a parsed JSON document {"objects": [...]}."""
    if not isinstance(doc, dict) or not isinstance(doc.get("objects"), list):
        raise ValueError("document must be an object with an 'objects' list")
    ws = Workspace()
    for entry in doc["objects"]:
        if not isinstance(entry, dict):
            raise ValueError("every entry of 'objects' must be an object")
        kind = entry.get("kind")
        name = entry.get("name")
        if kind not in KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        if not isinstance(name, str) or not name:
            raise ValueError("every object needs a nonempty string name")
        if name in ws.objects[kind]:
            raise ValueError("duplicate %s name %r" % (kind, name))
        ws.objects[kind][name] = entry
    for kind, (load, _, _) in TABLE.items():
        table = ws.objects[kind]
        for name, entry in table.items():
            table[name] = load(entry, ws)
    return ws


def load_workspace_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError("workspace is not valid JSON: %s" % exc) from exc
    return load_workspace(doc)


def _entry(kind, name, obj, space_name):
    return {"kind": kind, "name": name, **TABLE[kind][1](obj, space_name)}


def space_entry(name, space):
    return _entry("space", name, space, None)


def blockmetric_entry(name, bm, base_name):
    return _entry("blockmetric", name, bm, lambda _: base_name)


def dump_workspace(ws):
    """Serialize back to the document shape; round-trips bit-exactly.

    Spaces are named by identity, so equal spaces keep their own names.
    """
    names = {id(sp): name for name, sp in ws.objects["space"].items()}
    return {"objects": [_entry(kind, name, obj, lambda sp: names[id(sp)])
                        for kind in KINDS
                        for name, obj in ws.objects[kind].items()]}
