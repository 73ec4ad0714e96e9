"""Every value and record class is a `Frozen` subclass: immutable, equal
and hashed by its fields within one class, rebuilt equal by copy and
pickle, and refusing bad fields in its constructor with the same
ValueError text as before."""

import copy
import pickle
from fractions import Fraction
from math import inf

import pytest

from finmet import corelations, extarith, idempotents, maps, quotients, spaces
from finmet.cli import Command
from finmet.corelations import BlockMetric
from finmet.extarith import ExtValue
from finmet.harness import GenConfig
from finmet.idempotents import CostMatrix, FactorReport
from finmet.limits import Square
from finmet.maps import FinMap, identity
from finmet.minplus import IntMatrix
from finmet.pushouts import PushoutResult
from finmet.quotients import Submetric
from finmet.selftest import CriterionResult
from finmet.spaces import FinSpace, Frozen, Violation

LABELS = ("a", "b")
MATRIX = IntMatrix(1, [[0, 1], [1, 0]])
ONE = FinSpace(("c",), IntMatrix(1, [[0]]))


def _space():
    return FinSpace(LABELS, MATRIX)


def _square():
    ident = identity(_space())
    return Square(ident, ident, ident, ident)


# Each factory builds a new instance with the same fields on every call.
FACTORIES = {
    "ExtValue": lambda: ExtValue(Fraction(1, 2)),
    "IntMatrix": lambda: IntMatrix(2, [[0, 1], [inf, 0]]),
    "Violation": lambda: Violation("triangle", ("a", "b", "c"), "2 > 1 + 0"),
    "FinSpace": _space,
    "FinMap": lambda: FinMap(_space(), ONE, ("c", "c")),
    "Submetric": lambda: Submetric(_space(), MATRIX),
    "Square": _square,
    "PushoutResult": lambda: PushoutResult(_square(),
                                           Submetric(_space(), MATRIX)),
    "BlockMetric": lambda: BlockMetric(_space(), MATRIX, MATRIX, MATRIX,
                                       MATRIX),
    "CostMatrix": lambda: CostMatrix(LABELS, MATRIX),
    "FactorReport": lambda: FactorReport(("a",), {("a", "a"): "a"}),
    "GenConfig": lambda: GenConfig(seed=3, max_points=5),
    "CriterionResult": lambda: CriterionResult(1, "metric-laws", True, "ok"),
    "Command": lambda: Command("product", "binary product", ("left", "right")),
}
# A dict field makes a record unhashable, as it made the frozen dataclass.
UNHASHABLE = {"FactorReport"}


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(FACTORIES)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_record_is_immutable(name):
    obj = FACTORIES[name]()
    field = type(obj).__slots__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_fields_give_equal_records(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, f)
                                     for f in type(a)._fields))


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_copy_rebuilds_an_equal_record(name):
    obj = FACTORIES[name]()
    clone = copy.copy(obj)
    assert type(clone) is type(obj) and clone == obj


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_deepcopy_and_pickle_round_trip(name):
    obj = FACTORIES[name]()
    for clone in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj) and clone == obj
        if name not in UNHASHABLE:
            assert hash(clone) == hash(obj)


def test_loaded_records_live_in_spaces_under_their_old_names():
    """The workspace loader builds its records from spaces alone; each is
    the same class in the module of its operations."""
    assert maps.FinMap is spaces.FinMap
    assert quotients.Submetric is spaces.Submetric
    assert corelations.BlockMetric is spaces.BlockMetric
    assert idempotents.CostMatrix is spaces.CostMatrix


def test_parsed_value_cannot_be_deleted():
    value = extarith.parse("1")
    with pytest.raises(AttributeError):
        del value._frac
    assert extarith.parse("1") == ExtValue(1)


def test_records_of_different_classes_differ():
    assert CostMatrix(LABELS, MATRIX) != FinSpace(LABELS, MATRIX)
    assert FinSpace(LABELS, MATRIX) != CostMatrix(LABELS, MATRIX)
    assert Submetric(_space(), MATRIX) != (_space(), MATRIX)


def test_fields_differ_records_differ():
    assert GenConfig(seed=1) != GenConfig(seed=2)
    assert FinSpace(LABELS, MATRIX) != FinSpace(("a", "z"), MATRIX)


def test_factor_report_defaults_are_fresh():
    first, second = FactorReport(("a",)), FactorReport(("a",))
    assert first.witnesses == {} and first.failures == ()
    assert first.witnesses is not second.witnesses
    first.witnesses[("a", "a")] = "a"
    assert second.witnesses == {}


def test_repr_names_the_fields():
    assert repr(GenConfig(3, 5)) == "GenConfig(seed=3, max_points=5)"
    assert repr(Violation("k", ("a",), "d")) == (
        "Violation(kind='k', points=('a',), detail='d')")
    assert repr(CriterionResult(2, "x", False)) == (
        "CriterionResult(number=2, name='x', ok=False, detail='')")


def test_constructors_normalise_their_fields():
    space = FinSpace(["a", "b"], IntMatrix(3, [[0, 3], [3, 0]]))
    assert space.labels == LABELS and space.dist == MATRIX
    f = FinMap(space, space, ["b", "a"])
    assert f.assignment == ("b", "a")
    assert isinstance(CostMatrix(["a", "b"], MATRIX).labels, tuple)
    bm = BlockMetric(base=space, g00=space.dist, g01=MATRIX, g10=MATRIX,
                     g11=IntMatrix.from_tokens([["0", "1"], ["1", "0"]]))
    assert bm.g11 == MATRIX


# P is the two-point space and ONE the one-point space.
P = _space()
ID_P, TO_Q, ID_Q = identity(P), FinMap(P, ONE, ("c", "c")), identity(ONE)
WRONG = IntMatrix(1, [[0]])
REFUSALS = {
    "space_duplicate_labels": (lambda: FinSpace(("a", "a"), MATRIX),
                               "duplicate point labels"),
    "cost_duplicate_labels": (lambda: CostMatrix(("a", "a"), MATRIX),
                              "duplicate point labels"),
    "space_shape": (lambda: FinSpace(LABELS, WRONG),
                    "distance matrix shape does not match label count"),
    "cost_shape": (lambda: CostMatrix(LABELS, WRONG),
                   "cost matrix shape does not match label count"),
    "submetric_shape": (lambda: Submetric(P, WRONG),
                        "submetric matrix shape does not match base"),
    "block_shape_g01": (lambda: BlockMetric(P, MATRIX, WRONG, MATRIX, MATRIX),
                        "block g01 shape does not match base"),
    "block_shape_g11": (lambda: BlockMetric(P, MATRIX, MATRIX, MATRIX, WRONG),
                        "block g11 shape does not match base"),
    "assignment_length": (lambda: FinMap(P, P, ("a",)),
                          "assignment length does not match source size"),
    "unknown_target_point": (lambda: FinMap(P, P, ("a", "zzz")),
                             "assignment hits unknown target point 'zzz'"),
    "square_apex": (lambda: Square(ID_P, ID_Q, ID_P, ID_P),
                    "square legs do not share an apex"),
    "square_codomain": (lambda: Square(ID_P, ID_P, ID_P, TO_Q),
                        "square sides do not share a codomain"),
    "square_legs": (lambda: Square(ID_P, ID_P, ID_Q, TO_Q),
                    "square sides do not match legs"),
    "negative_max_points": (lambda: GenConfig(max_points=-1),
                            "max_points must be >= 0"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_constructor_refusals_keep_their_text(name):
    build, text = REFUSALS[name]
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == text


@pytest.mark.parametrize("assignment, named", [
    (("zzz", "yyy"), "'zzz'"),
    (("a", "yyy"), "'yyy'"),
    (("a", ["b"]), "['b']"),
    ((["b"], "zzz"), "['b']"),
    (("zzz", {"b": 1}), "'zzz'"),
    ((1, "a"), "1"),
], ids=["first_of_two", "second", "unhashable", "unhashable_first",
        "before_unhashable", "int"])
def test_unknown_target_point_is_named_in_order(assignment, named):
    """FinMap names the first label, in assignment order, that is no
    target point, whether or not the labels hash."""
    with pytest.raises(ValueError) as exc:
        FinMap(P, P, assignment)
    assert str(exc.value) == "assignment hits unknown target point " + named


# Each record constructor, with a matrix argument of the right shape.
FULL = BlockMetric(P, MATRIX, MATRIX, MATRIX, MATRIX).as_matrix()
MATRIX_TAKERS = {
    "FinSpace": (lambda m: FinSpace(LABELS, m), MATRIX),
    "CostMatrix": (lambda m: CostMatrix(LABELS, m), MATRIX),
    "Submetric": (lambda m: Submetric(P, m), MATRIX),
    "BlockMetric_g00": (lambda m: BlockMetric(P, m, MATRIX, MATRIX, MATRIX),
                        MATRIX),
    "BlockMetric_g01": (lambda m: BlockMetric(P, MATRIX, m, MATRIX, MATRIX),
                        MATRIX),
    "BlockMetric_g10": (lambda m: BlockMetric(P, MATRIX, MATRIX, m, MATRIX),
                        MATRIX),
    "BlockMetric_g11": (lambda m: BlockMetric(P, MATRIX, MATRIX, MATRIX, m),
                        MATRIX),
    "BlockMetric.from_matrix": (lambda m: BlockMetric.from_matrix(P, m), FULL),
}
# The same entries in every form but an IntMatrix.
OTHER_FORMS = {
    "extvalues": lambda m: tuple(m),
    "ints": lambda m: [list(row) for row in m.rows],
    "tokens": lambda m: [[m.token(i, j) for j in range(len(row))]
                         for i, row in enumerate(m.rows)],
}


@pytest.mark.parametrize("form", sorted(OTHER_FORMS))
@pytest.mark.parametrize("taker", sorted(MATRIX_TAKERS))
def test_constructors_take_only_an_int_matrix(taker, form):
    build, good = MATRIX_TAKERS[taker]
    build(good)
    with pytest.raises(TypeError):
        build(OTHER_FORMS[form](good))
