"""Generated workspace documents through every command.

A document holds spaces of one to three points, maps between them, an
embedding and a span for the pushout, a submetric, a block metric, a
cost matrix and a relation.  The valid draw builds each object inside
its contract; a mutated draw then changes up to three entries (a
distance token, an assignment label or a relation cell) and may make
one field malformed.  For
every document and command:

- the command exits 0, 1 or 2 and raises nothing, and exit 2 prints
  one `error:` line and no stdout;
- a command that exits 0 read only objects with no violations;
- dump(load(doc)) is the document itself, so a fixed point;
- a pushout's block formula agrees with its closure oracle.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finmet import cli
from finmet.workspace import dump_workspace, load_workspace

GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), None)
LABELS = ("a", "b", "c")


def token(v):
    return "inf" if v is None else str(v)


def add(u, v):
    return None if u is None or v is None else u + v


def least(u, v):
    return v if u is None else u if v is None else min(u, v)


def closure(m):
    """The least matrix below m that satisfies the triangle inequality."""
    m = [list(row) for row in m]
    n = len(m)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                m[i][j] = least(m[i][j], add(m[i][k], m[k][j]))
    return m


def tokens(m):
    return [[token(v) for v in row] for row in m]


@st.composite
def metrics(draw, n):
    """A metric on n points: the closure of grid costs, zero diagonal."""
    return closure([[Fraction(0) if i == j else draw(st.sampled_from(GRID))
                     for j in range(n)] for i in range(n)])


@st.composite
def valid_documents(draw):
    spaces = {name: draw(metrics(draw(st.integers(1, 3))))
              for name in ("S0", "S1", "S2")}
    d0 = spaces["S0"]
    n0 = len(d0)
    keep = sorted(draw(st.sets(st.integers(0, n0 - 1), min_size=1)))
    spaces["A"] = [[d0[i][j] for j in keep] for i in keep]
    objects = [{"kind": "space", "name": name, "points": list(LABELS[:len(d)]),
                "dist": tokens(d)} for name, d in spaces.items()]

    def assignment(source, target):
        points = LABELS[:len(spaces[target])]
        return [draw(st.sampled_from(points)) for _ in spaces[source]]

    maps = [("inc", "A", "S0", [LABELS[i] for i in keep]),
            ("f", "A", "S1", assignment("A", "S1")),
            ("m", "S1", "S2", assignment("S1", "S2")),
            ("m2", "S1", "S2", assignment("S1", "S2"))]
    objects += [{"kind": "map", "name": name, "source": s, "target": t,
                 "assignment": a} for name, s, t, a in maps]
    lower = draw(metrics(n0))
    objects.append({"kind": "submetric", "name": "G", "base": "S0",
                    "matrix": tokens(closure(
                        [[least(u, v) for u, v in zip(r, s)]
                         for r, s in zip(d0, lower)]))})
    subset = draw(st.sets(st.integers(0, n0 - 1)))
    cross = [[None] * n0 for _ in range(n0)]
    for x in range(n0):
        for y in range(n0):
            for u in subset:
                cross[x][y] = least(cross[x][y], add(d0[x][u], d0[u][y]))
    objects.append({"kind": "blockmetric", "name": "E", "base": "S0",
                    "g00": tokens(d0), "g01": tokens(cross),
                    "g10": tokens(cross), "g11": tokens(d0)})
    objects.append({"kind": "costmatrix", "name": "rho",
                    "points": list(LABELS[:n0]),
                    "matrix": tokens([[draw(st.sampled_from(GRID))
                                       for _ in d0] for _ in d0])})
    r = draw(st.integers(1, 3))
    objects.append({"kind": "relation", "name": "R",
                    "points": list(LABELS[:r]),
                    "rel": [[draw(st.integers(0, 1)) for _ in range(r)]
                            for _ in range(r)]})
    return {"objects": objects}


MALFORMED = ("1/0", "2/4", "-1", 3, None, [], "x")
MATRIX_FIELDS = ("dist", "matrix", "g00", "g01", "g10", "g11")


def mutate(draw, doc):
    """Change one entry of one object of doc, in place."""
    entry = draw(st.sampled_from(doc["objects"]))
    if entry["kind"] == "map":
        a = entry["assignment"]
        a[draw(st.integers(0, len(a) - 1))] = draw(st.sampled_from(LABELS))
    elif entry["kind"] == "relation":
        row = draw(st.sampled_from(entry["rel"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(0, 1))
    else:
        rows = entry[draw(st.sampled_from(
            [k for k in entry if k in MATRIX_FIELDS]))]
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = token(
            draw(st.sampled_from(GRID)))


@st.composite
def documents(draw):
    """A valid document, with up to three entries changed and perhaps
    one field made malformed."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, doc)
    if draw(st.integers(0, 3)) == 0:
        entry = draw(st.sampled_from(doc["objects"]))
        field = draw(st.sampled_from([k for k in entry if k != "kind"]))
        entry[field] = draw(st.sampled_from(MALFORMED))
    return doc


# Each command, with the (kind, name) of every object it reads.
COMMANDS = [
    (["validate", "space", "S0"], [("space", "S0")]),
    (["validate", "map", "f"], [("map", "f")]),
    (["validate", "submetric", "G"], [("submetric", "G")]),
    (["product", "S0", "S1"], [("space", "S0"), ("space", "S1")]),
    (["coproduct", "S1", "S2"], [("space", "S1"), ("space", "S2")]),
    (["equalizer", "m", "m2"], [("map", "m"), ("map", "m2")]),
    (["pushout", "--embedding", "inc", "--along", "f", "--oracle"],
     [("map", "inc"), ("map", "f")]),
    (["cokernel-pair", "inc"], [("map", "inc")]),
    (["factorize", "m"], [("map", "m")]),
    (["kernel-metric", "f"], [("map", "f")]),
    (["quotient", "G"], [("submetric", "G")]),
    (["quotient-leq", "m", "m2"], [("map", "m"), ("map", "m2")]),
    (["corelation", "check", "E"], [("blockmetric", "E")]),
    (["corelation", "effective", "E"], [("blockmetric", "E")]),
    (["corelation", "from-subset", "S0", "a"], [("space", "S0")]),
    (["idempotent", "check", "rho"], [("costmatrix", "rho")]),
    (["idempotent", "factor", "rho"], [("costmatrix", "rho")]),
    (["relation", "witness", "R", "a", "b"], [("relation", "R")]),
]


def run(path, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["-w", path] + argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_every_command_on_generated_documents(doc):
    try:
        ws = load_workspace(doc)
    except ValueError:
        ws = None
    else:
        dumped = dump_workspace(ws)
        assert dumped == doc
        assert dump_workspace(load_workspace(dumped)) == dumped
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv, reads in COMMANDS:
            code, out, err = run(path, argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert out == "" and len(err.splitlines()) == 1
                assert err.startswith("error:"), (argv, err)
                continue
            assert ws is not None, argv
            if code == 0:
                for kind, name in reads:
                    assert not ws.violations(kind, name), (argv, kind, name)
            if argv[0] == "pushout":
                assert code == 0 and "formula vs oracle: AGREE" in out
    finally:
        os.unlink(path)
