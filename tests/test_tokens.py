"""The document path reads tokens straight to an IntMatrix's ints and
writes them back from the ints.  On random matrices of canonical tokens,
with "inf", denominators above 1 and ints near 10**320:

- the loaded matrix holds, entry by entry, the Fraction each token
  reads as, with INF for "inf";
- with bad tokens planted, the error names the first bad token in
  row-major order;
- IntMatrix.tokens writes what IntMatrix.token writes, entry by entry,
  and dump(load(doc)) is doc.
"""

import os
import sys
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from finmet.cli import _matrix_lines
from finmet.minplus import IntMatrix
from finmet.workspace import dump_workspace, load_workspace
from reference import fracs, token

HUGE = 10 ** 320

ints = st.one_of(st.integers(0, 12), st.integers(HUGE - 5, HUGE + 5))
dens = st.one_of(st.integers(1, 12), st.just(HUGE + 1))
values = st.one_of(st.none(), st.builds(Fraction, ints, dens))


@st.composite
def token_matrices(draw, n=None):
    n = draw(st.integers(0, 4)) if n is None else n
    return [[token(draw(values)) for _ in range(n)] for _ in range(n)]


def costmatrix_doc(tokens):
    labels = ["p%d" % i for i in range(len(tokens))]
    return {"objects": [{"kind": "costmatrix", "name": "C", "points": labels,
                         "matrix": tokens}]}


def load_rho(tokens):
    ws = load_workspace(costmatrix_doc(tokens))
    return ws.objects["costmatrix"]["C"].rho


@settings(max_examples=100, deadline=None)
@given(token_matrices())
def test_loaded_matrix_is_the_per_token_one(tokens):
    assert fracs(load_rho(tokens)) == [
        [None if t == "inf" else Fraction(t) for t in row] for row in tokens]


# Each bad token with the error that names it.
BAD = [(0, "malformed value token 0"), (1.5, "malformed value token 1.5"),
       (None, "malformed value token None"),
       ([], "malformed value token []"), ({}, "malformed value token {}"),
       ("+1", "malformed value token '+1'"),
       ("01", "malformed value token '01'"),
       ("1/0", "malformed value token '1/0'"),
       ("x", "malformed value token 'x'"),
       ("2/4", "value token '2/4' is not in lowest terms"),
       ("0/5", "value token '0/5' is not in lowest terms"),
       ("7/1", "value token '7/1' is not in lowest terms")]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    token_matrices(n),
    st.lists(st.tuples(st.integers(0, n * n - 1), st.sampled_from(BAD)),
             min_size=1, max_size=2, unique_by=lambda planted: planted[0]))))
def test_error_names_the_first_bad_token(case):
    tokens, planted = case
    n = len(tokens)
    for cell, (bad, _) in planted:
        tokens[cell // n][cell % n] = bad
    first = min(planted)[1][1]
    with pytest.raises(ValueError) as exc:
        load_rho(tokens)
    assert str(exc.value) == first


@st.composite
def int_matrices(draw):
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.just(inf), ints)
    return IntMatrix(draw(dens), [[draw(entry) for _ in range(n)]
                                  for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_matrix_tokens_are_the_values_tokens(m):
    want = [[m.token(i, j) for j in range(len(row))]
            for i, row in enumerate(m.rows)]
    assert want == [[token(None if x == inf else Fraction(x, m.den))
                     for x in row] for row in m.rows]
    assert m.tokens() == want
    assert _matrix_lines("m", (), m)[2:] == ["    " + " ".join(row)
                                              for row in want]


@st.composite
def documents(draw):
    n = draw(st.integers(1, 3))
    labels = ["a", "b", "c"][:n]
    square = token_matrices(n)
    return {"objects": [
        {"kind": "space", "name": "S", "points": labels,
         "dist": draw(square)},
        {"kind": "submetric", "name": "G", "base": "S",
         "matrix": draw(square)},
        {"kind": "blockmetric", "name": "E", "base": "S",
         **{b: draw(square) for b in ("g00", "g01", "g10", "g11")}},
        {"kind": "costmatrix", "name": "C", "points": labels,
         "matrix": draw(square)}]}


@settings(max_examples=100, deadline=None)
@given(documents())
def test_dump_of_load_is_the_document(doc):
    assert dump_workspace(load_workspace(doc)) == doc
