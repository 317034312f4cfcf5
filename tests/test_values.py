"""Every value class is immutable, equal by class and fields, hashed as the
tuple of its fields, and keeps what is read off it outside its fields."""

import copy
import pickle
import re

import pytest

import sweedler
from sweedler.documents import Document, MeasuringDocument
from sweedler.errors import DimensionMismatch
from sweedler.fields import Field, Value
from sweedler.graded import Graded, GradedSpace
from sweedler.linalg import LinMap, _SignedSwap
from sweedler.measurings import Intertwiner, Measuring, OrbitReport, identity_measuring
from sweedler.reconstruction import GeneratedSubcoalgebra, reconstruct
from sweedler.structures import (
    Algebra,
    Bialgebra,
    Coalgebra,
    Failure,
    FusionOperators,
    HopfAlgebra,
    ValidationReport,
    fusion_operators,
)
from sweedler.tambara import CorrespondenceReport, PresentedAlgebra
from sweedler.zoo import cyclic_group_hopf, graded_line_hopf

F3 = Field(3)


def _hopf(i):
    return cyclic_group_hopf(F3, 2 + i)


def _identity(i):
    return identity_measuring(_hopf(i).algebra)


# class -> a fresh value for i = 0, and one with other fields for i = 1
VALUES = {
    Field: lambda i: Field(3 + 2 * i),
    LinMap: lambda i: LinMap(F3, 1, 2, (1, 2 - i)),
    _SignedSwap: lambda i: _SignedSwap(F3, (0, 1), (i,)),
    Algebra: lambda i: _hopf(i).algebra,
    Coalgebra: lambda i: _hopf(i).coalgebra,
    Bialgebra: lambda i: _hopf(i).bialgebra,
    HopfAlgebra: _hopf,
    Failure: lambda i: Failure("coassociativity", (0, i)),
    ValidationReport: lambda i: ValidationReport((Failure("left counit", (i,)),)),
    FusionOperators: lambda i: fusion_operators(_hopf(i).bialgebra),
    Measuring: _identity,
    Intertwiner: lambda i: Intertwiner(_identity(0), _identity(0), LinMap(F3, 1, 1, (1 + i,))),
    OrbitReport: lambda i: OrbitReport(1 + i, ((_identity(0), 1),)),
    GradedSpace: lambda i: GradedSpace(F3, (0, 1 + i)),
    Graded: lambda i: graded_line_hopf(F3, 1 + i),
    Document: lambda i: Document(_hopf(0).algebra, ("1", "gh"[i])),
    MeasuringDocument: lambda i: MeasuringDocument("a.json", "bc"[i] + ".json", _identity(0)),
    GeneratedSubcoalgebra: lambda i: reconstruct([_identity(i)]),
    PresentedAlgebra: lambda i: PresentedAlgebra(F3, ("x",), (((1, (0, 0)),),)[:i]),
    CorrespondenceReport: lambda i: CorrespondenceReport(1 + i, 1, 1, (1,), (1,), True, True, True),
}
CLASSES = pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)


def _fields(value):
    return {name: getattr(value, name) for name in type(value)._fields}


def test_every_value_class_is_covered():
    defined = {cls for module in vars(sweedler).values() if isinstance(module, type(sweedler))
               for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Value) and cls is not Value}
    assert len(VALUES) == 20 and defined == set(VALUES)


@CLASSES
def test_fields_cannot_be_set_or_deleted(cls):
    value = VALUES[cls](0)
    before = dict(vars(value))
    name = cls._fields[0]
    for change in (lambda: setattr(value, name, None), lambda: delattr(value, name),
                   lambda: setattr(value, "extra", None)):
        with pytest.raises(AttributeError):
            change()
    assert vars(value) == before


@CLASSES
def test_equality_and_hash_go_by_class_and_fields(cls):
    value, same, other = VALUES[cls](0), VALUES[cls](0), VALUES[cls](1)
    assert value is not same and value == same and not value != same
    assert hash(value) == hash(same) == hash(tuple(_fields(value).values()))
    assert value != other and other != value
    # a value of another class with the very same fields
    twin = object.__new__(type("Twin", (Value,), {"__annotations__": dict.fromkeys(cls._fields)}))
    vars(twin).update(_fields(value))
    assert value != twin and twin != value


@CLASSES
def test_keyword_construction_copy_and_pickle_give_equal_values(cls):
    value = VALUES[cls](0)
    assert cls(**_fields(value)) == value
    assert copy.copy(value) == value
    restored = pickle.loads(pickle.dumps(value))
    assert restored == value and type(restored) is cls
    with pytest.raises(AttributeError):
        setattr(restored, cls._fields[0], None)


@pytest.mark.parametrize("cls", [cls for cls in VALUES if "report" in vars(cls)],
                         ids=lambda cls: cls.__name__)
def test_the_report_is_computed_once_and_kept_outside_the_fields(cls):
    value = VALUES[cls](0)
    assert "report" not in vars(value)
    report = value.report
    assert report.ok and value.report is report and vars(value)["report"] is report
    fresh = VALUES[cls](0)
    assert value == fresh and hash(value) == hash(fresh)


def test_a_map_keeps_its_nonzeros():
    written = LinMap.from_nonzeros(F3, 2, 2, [(0, 1, 2)])
    rows = written.nonzeros(False)
    assert rows == [[(1, 2)], []] and written.nonzeros(False) is rows
    assert written == LinMap(F3, 2, 2, (0, 2, 0, 0))


@pytest.mark.parametrize("build,error,message", [
    (lambda: LinMap(F3, 2, 2, (0, 1, 2)), DimensionMismatch, "2x2 map needs 4 entries, got 3"),
    (lambda: Field(4), ValueError, "characteristic must be 0 or a prime, got 4"),
    (lambda: Algebra(mult=LinMap(F3, 0, 0, ()), unit=LinMap(F3, 0, 1, ())), DimensionMismatch,
     "an algebra needs dim >= 1 (it has a unit)"),
    (lambda: Graded(graded_line_hopf(F3, 1), GradedSpace(F3, (0, 1))), TypeError,
     "a graded value cannot be graded again"),
], ids=["entries", "field", "algebra", "graded"])
def test_construction_checks_raise_as_before(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_repr_names_the_class_and_its_fields():
    assert repr(Field(3)) == "Field(char=3)"
    assert repr(Failure("unit", (0,))) == "Failure(axiom='unit', witness=(0,))"
    assert Field() == Field(char=0)
