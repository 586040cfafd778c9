"""The record contract of relfa's structures and reports, checked against
``dataclasses.dataclass(frozen=True)`` as the oracle: each record class
gets a dataclass twin built here from the same fields and defaults, and the
two must agree on construction, repr, equality, hash, immutability and the
checks the class runs on its fields."""

from __future__ import annotations

import dataclasses

import pytest

from relfa.algebra import (
    CheckResult,
    EffectAlgebraTable,
    RelFA,
    SumTable,
    ValidationReport,
    to_relfa,
    validate,
)
from relfa.catalog import chain
from relfa.complexes import (
    ComplexMorphism,
    LiftingReport,
    ShapeInclusion,
    TruncatedEpsilonComplex,
    check_lifting,
    shape_from_name,
    simplex,
)
from relfa.homology import AbelianGroupPresentation, h1_of_complex
from relfa.mapping import (
    HomObject,
    HomObjectComponent,
    MappingComplex,
    PMMorphism,
    hom_object_ea,
    mapping_complex,
    pm_morphisms,
)
from relfa.nerve import nerve
from relfa.ortho import ClassificationFlags, classify
from test_complexes import record_fields, replace

RECORD_CLASSES = (
    CheckResult, ValidationReport, SumTable, RelFA,
    TruncatedEpsilonComplex, ComplexMorphism, ShapeInclusion, LiftingReport,
    AbelianGroupPresentation,
    PMMorphism, MappingComplex, HomObjectComponent, HomObject,
    ClassificationFlags,
)


def _twin(cls):
    """The frozen dataclass with the fields, defaults, class values and
    ``__post_init__`` of the record class ``cls``; a subclass that declares
    no fields gets a plain subclass of its base's twin."""
    if not cls.__dict__.get("__annotations__"):
        return type(cls.__name__, (_twin(cls.__base__),), {"kind": cls.kind})
    names = record_fields(cls)
    fields = [(n, object, cls.__dict__[n]) if n in cls.__dict__ else (n, object) for n in names]
    namespace = {key: cls.__dict__[key] for key in ("kind", "__post_init__") if key in cls.__dict__}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


def _samples() -> list:
    c1, c2 = chain(1), chain(2)
    N = nerve(to_relfa(c2))
    hob = hom_object_ea(c1, c2)
    report = validate("effect-algebra", c2)
    return [
        CheckResult("commutativity", False, ("a", "b"), "a + b != b + a"),
        CheckResult("associativity", True),
        report, ValidationReport("frobenius", "x", report.checks),
        SumTable(c2.name, c2.elements, c2.zero, c2.one, c2.sums), c2,
        to_relfa(c2), RelFA("one", ("0",), frozenset({("0", "0", "0")}), frozenset({"0"}),
                            frozenset({("0", "0", "0")}), frozenset({"0"})),
        simplex(1), N,
        ComplexMorphism(simplex(0), simplex(1), {"0": "0"}, {"00": "00"}),
        shape_from_name("horn-2-1"),
        check_lifting(shape_from_name("horn-2-1"), N),
        check_lifting(shape_from_name("boundary-2"), N),
        h1_of_complex(N), AbelianGroupPresentation(1, (2, 4)),
        pm_morphisms(c1, c2)[0],
        mapping_complex(nerve(to_relfa(c1)), N),
        hob.components[0], hob,
        classify(to_relfa(c2)),
    ]


def _bare(cls, names, values):
    """An instance of ``cls`` holding ``values``, made without ``__init__``,
    so that a field can hold a value the class's checks would refuse."""
    obj = object.__new__(cls)
    vars(obj).update(zip(names, values))
    return obj


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


class _Other:
    """A field value that equals nothing else."""

    def __repr__(self):
        return "<other>"


def test_the_samples_cover_every_record_class():
    assert {type(r) for r in _samples()} >= set(RECORD_CLASSES)


@pytest.mark.parametrize("record", _samples(), ids=lambda r: type(r).__name__)
def test_records_agree_with_their_dataclass_twins(record):
    cls = type(record)
    twin, names = _twin(cls), record_fields(cls)
    declaring = cls if cls.__dict__.get("__annotations__") else cls.__base__
    values = [getattr(record, n) for n in names]
    same, copy = twin(*values), cls(*values)
    assert repr(record) == repr(copy) == repr(same)
    assert vars(copy) == vars(same) and list(vars(copy)) == list(names)
    required = len([n for n in names if n not in declaring.__dict__])
    assert repr(cls(*values[:required])) == repr(twin(*values[:required]))
    with pytest.raises(TypeError) as ours:
        cls()
    with pytest.raises(TypeError) as theirs:
        twin()
    assert str(ours.value) == str(theirs.value)
    assert record == copy and copy == record and not record != copy
    assert _hash(record) == _hash(copy) == _hash(same)
    for i in range(len(names)):
        changed = values[:i] + [_Other()] + values[i + 1:]
        other, other_twin = _bare(cls, names, changed), _bare(twin, names, changed)
        assert (record == other) == (same == other_twin) is False
        assert (record != other) == (same != other_twin) is True
        assert _hash(other) == _hash(other_twin)
        assert repr(other) == repr(other_twin)
    assert record != same and same != record
    assert record != tuple(values) and tuple(values) != record
    for name in names:
        messages = []
        for obj in (record, same):
            for action in (lambda: setattr(obj, name, None), lambda: delattr(obj, name)):
                with pytest.raises(AttributeError) as exc:
                    action()
                messages.append(str(exc.value))
        assert messages[:2] == messages[2:]
    assert [getattr(record, n) for n in names] == values
    if cls is TruncatedEpsilonComplex:
        assert copy.signature() == record.signature() and "_signature" in vars(copy)


def test_a_record_equals_no_record_of_another_class():
    c2 = chain(2)
    base = SumTable(c2.name, c2.elements, c2.zero, c2.one, c2.sums)
    assert base != c2 and c2 != base
    assert replace(c2, name="other") != c2 and replace(c2, name=c2.name) == c2
    assert type(replace(c2, name="other")) is EffectAlgebraTable
    records = _samples()
    for a in records:
        for b in records:
            if type(a) is not type(b):
                assert a != b


def _table(elements=("0", "a", "1"), zero="0", one="1", sums=None):
    return ("t", elements, zero, one, {("0", "a"): "a"} if sums is None else sums)


_BAD_INPUT = [
    (SumTable, _table(elements=("0", "a", "a", "1"))),
    (SumTable, _table(zero="z")),
    (SumTable, _table(one="z")),
    (SumTable, _table(sums={("0", "z"): "a"})),
    (RelFA, ("r", ("0", "0"), frozenset(), frozenset(), frozenset(), frozenset())),
    (RelFA, ("r", ("0",), frozenset({("0", "z", "0")}), frozenset(), frozenset(), frozenset())),
    (RelFA, ("r", ("0",), frozenset(), frozenset(), frozenset({("0", "0")}), frozenset())),
    (RelFA, ("r", ("0",), frozenset(), frozenset({"z"}), frozenset(), frozenset())),
    (RelFA, ("r", ("0",), frozenset(), frozenset(), frozenset(), frozenset({"z"}))),
    (ShapeInclusion, ("s", simplex(2), simplex(1))),
    (ShapeInclusion, ("s", TruncatedEpsilonComplex(
        "flipped", ("0", "1"), ("00", "01", "11"), {"00": "0", "01": "1", "11": "1"},
        {"00": "0", "01": "0", "11": "1"}, {"0": "00", "1": "11"}, frozenset(), frozenset()),
        simplex(1))),
    (ShapeInclusion, ("s", simplex(1, marked_top=True), simplex(1))),
]


@pytest.mark.parametrize("cls, args", _BAD_INPUT)
def test_bad_input_raises_the_twins_error(cls, args):
    with pytest.raises(ValueError) as ours:
        cls(*args)
    with pytest.raises(ValueError) as theirs:
        _twin(cls)(*args)
    assert str(ours.value) == str(theirs.value)
