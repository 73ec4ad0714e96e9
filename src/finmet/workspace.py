"""The fixture file format: one JSON document holding named objects of
every kind, each entry tagged with its kind.

Matrices are row-major lists of lists of value tokens ("p/q", "p", or
"inf"); serialization round-trips bit-exactly because tokens are
canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import extarith
from .corelations import BlockMetric
from .idempotents import BoolRelation, CostMatrix
from .maps import FinMap
from .quotients import Submetric
from .spaces import FinSpace

KINDS = ("space", "map", "submetric", "blockmetric", "costmatrix", "relation")


@dataclass
class Workspace:
    spaces: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    submetrics: dict = field(default_factory=dict)
    blockmetrics: dict = field(default_factory=dict)
    costmatrices: dict = field(default_factory=dict)
    relations: dict = field(default_factory=dict)

    def space(self, name):
        return self._get(self.spaces, name, "space")

    def map(self, name):
        return self._get(self.maps, name, "map")

    def submetric(self, name):
        return self._get(self.submetrics, name, "submetric")

    def blockmetric(self, name):
        return self._get(self.blockmetrics, name, "blockmetric")

    def costmatrix(self, name):
        return self._get(self.costmatrices, name, "costmatrix")

    def relation(self, name):
        return self._get(self.relations, name, "relation")

    @staticmethod
    def _get(table, name, kind):
        if name not in table:
            raise ValueError("no %s named %r in workspace" % (kind, name))
        return table[name]


def parse_matrix(rows):
    return tuple(tuple(extarith.parse(tok) for tok in row) for row in rows)


def matrix_tokens(matrix):
    return [[v.token() for v in row] for row in matrix]


def load_workspace(doc):
    """Build a Workspace from a parsed JSON document {"objects": [...]}."""
    if not isinstance(doc, dict) or not isinstance(doc.get("objects"), list):
        raise ValueError("document must be an object with an 'objects' list")
    ws = Workspace()
    deferred_maps = []
    for entry in doc["objects"]:
        if not isinstance(entry, dict):
            raise ValueError("every entry of 'objects' must be an object")
        kind = entry.get("kind")
        name = entry.get("name")
        if kind not in KINDS:
            raise ValueError("unknown kind %r" % (kind,))
        if not isinstance(name, str) or not name:
            raise ValueError("every object needs a nonempty string name")
        table = {
            "space": ws.spaces, "map": ws.maps, "submetric": ws.submetrics,
            "blockmetric": ws.blockmetrics, "costmatrix": ws.costmatrices,
            "relation": ws.relations,
        }[kind]
        if name in table:
            raise ValueError("duplicate %s name %r" % (kind, name))
        if kind == "space":
            table[name] = FinSpace(tuple(entry["points"]),
                                   parse_matrix(entry["dist"]))
        elif kind == "map":
            deferred_maps.append(entry)
            table[name] = None  # reserve the name
        elif kind == "submetric":
            table[name] = entry  # resolved after spaces are loaded
        elif kind == "blockmetric":
            table[name] = entry
        elif kind == "costmatrix":
            table[name] = CostMatrix(tuple(entry["points"]),
                                     parse_matrix(entry["matrix"]))
        else:
            table[name] = BoolRelation(
                tuple(entry["points"]),
                tuple(tuple(bool(c) for c in row) for row in entry["rel"]))
    for entry in deferred_maps:
        ws.maps[entry["name"]] = FinMap(
            ws.space(entry["source"]), ws.space(entry["target"]),
            tuple(entry["assignment"]))
    for name, entry in list(ws.submetrics.items()):
        ws.submetrics[name] = Submetric(ws.space(entry["base"]),
                                        parse_matrix(entry["matrix"]))
    for name, entry in list(ws.blockmetrics.items()):
        ws.blockmetrics[name] = BlockMetric(
            base=ws.space(entry["base"]),
            g00=parse_matrix(entry["g00"]), g01=parse_matrix(entry["g01"]),
            g10=parse_matrix(entry["g10"]), g11=parse_matrix(entry["g11"]))
    return ws


def load_workspace_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("workspace is not valid JSON: %s" % exc) from exc
    return load_workspace(doc)


def space_entry(name, space):
    return {"kind": "space", "name": name, "points": list(space.labels),
            "dist": matrix_tokens(space.dist)}


def map_entry(name, fmap, source_name, target_name):
    return {"kind": "map", "name": name, "source": source_name,
            "target": target_name, "assignment": list(fmap.assignment)}


def submetric_entry(name, sm, base_name):
    return {"kind": "submetric", "name": name, "base": base_name,
            "matrix": matrix_tokens(sm.gamma)}


def blockmetric_entry(name, bm, base_name):
    return {"kind": "blockmetric", "name": name, "base": base_name,
            "g00": matrix_tokens(bm.g00), "g01": matrix_tokens(bm.g01),
            "g10": matrix_tokens(bm.g10), "g11": matrix_tokens(bm.g11)}


def dump_workspace(ws, names=None):
    """Serialize back to the document shape; round-trips bit-exactly."""
    objects = []
    for name, space in ws.spaces.items():
        objects.append(space_entry(name, space))
    for name, fmap in ws.maps.items():
        src = _space_name(ws, fmap.source)
        tgt = _space_name(ws, fmap.target)
        objects.append(map_entry(name, fmap, src, tgt))
    for name, sm in ws.submetrics.items():
        objects.append(submetric_entry(name, sm, _space_name(ws, sm.base)))
    for name, bm in ws.blockmetrics.items():
        objects.append(blockmetric_entry(name, bm, _space_name(ws, bm.base)))
    for name, cm in ws.costmatrices.items():
        objects.append({"kind": "costmatrix", "name": name,
                        "points": list(cm.labels),
                        "matrix": matrix_tokens(cm.rho)})
    for name, rel in ws.relations.items():
        objects.append({"kind": "relation", "name": name,
                        "points": list(rel.labels),
                        "rel": [list(row) for row in rel.rel]})
    return {"objects": objects}


def _space_name(ws, space):
    for name, sp in ws.spaces.items():
        if sp == space:
            return name
    raise ValueError("space is not registered in the workspace")
