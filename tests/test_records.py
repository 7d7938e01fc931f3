"""The frozen record classes behave as the frozen dataclasses they were.

Each class's fields and defaults are listed here, not read from the
class, and a reference ``dataclasses.make_dataclass(..., frozen=True)``
is built from that list; both are then given the same values.  Only the
exception classes differ: a record raises AttributeError where the
dataclass raises its subclass FrozenInstanceError.
"""

import dataclasses

import pytest

from finhaar.catalog import Catalog, CatalogEntry
from finhaar.engel import CentralSeries, CommutatorReport
from finhaar.measure import AveragedIntersection, LargenessCertificate
from finhaar.towers import Tower
from finhaar.wordsets import CosetWitness, ExtractionReport, ModeResult, WordSet

# class: (field names in order, {field: default})
RECORDS = {
    CatalogEntry: (("label", "group", "automorphisms"), {}),
    Catalog: (("source", "entries", "towers"), {}),
    CommutatorReport: (
        (
            "group",
            "law",
            "counterexample",
            "triples_checked",
            "qualifying_triples",
            "nilpotency_class",
            "applicable",
        ),
        {"qualifying_triples": None, "nilpotency_class": None, "applicable": True},
    ),
    CentralSeries: (("group", "terms", "stabilized", "nilpotency_class"), {}),
    AveragedIntersection: (("average", "product_of_measures"), {}),
    LargenessCertificate: (("group", "base", "k", "u_set"), {}),
    Tower: (("name", "levels", "maps"), {}),
    WordSet: (("group", "kind", "subset", "exponent", "aut"), {"exponent": None, "aut": None}),
    CosetWitness: (("group", "subgroup", "t", "target", "fallback"), {"fallback": None}),
    ModeResult: (
        ("mode", "subgroup", "seed_set", "certificates"),
        {"seed_set": (), "certificates": ()},
    ),
    ExtractionReport: (
        (
            "group",
            "kind",
            "word_set",
            "requested_mode",
            "result",
            "result_mode",
            "verified_normal",
            "verified_law",
            "proof_following",
            "direct_search",
            "proof_reached_maximum",
            "coset_witness",
            "slice_subgroup",
            "findings",
        ),
        {
            "proof_following": None,
            "direct_search": None,
            "proof_reached_maximum": None,
            "coset_witness": None,
            "slice_subgroup": None,
            "findings": (),
        },
    ),
}

CLASSES = list(RECORDS)


def _reference(cls):
    names, defaults = RECORDS[cls]
    spec = [
        (name, object, dataclasses.field(default=defaults[name])) if name in defaults else name
        for name in names
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


REFERENCES = {cls: _reference(cls) for cls in CLASSES}


def _values(cls):
    """One distinct string per field: its repr and str differ."""
    names, _ = RECORDS[cls]
    return {name: f"{name}-{i}" for i, name in enumerate(names)}


def _both(cls, *args, **kwargs):
    return cls(*args, **kwargs), REFERENCES[cls](*args, **kwargs)


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_equality_field_by_field(cls):
    names, _ = RECORDS[cls]
    values = _values(cls)
    rec, ref = _both(cls, **values)
    assert rec == cls(**values) and not rec != cls(**values)
    assert ref == REFERENCES[cls](**values)
    for name in names:
        other = {**values, name: "changed"}
        assert (rec == cls(**other)) == (ref == REFERENCES[cls](**other)) is False
        assert (rec != cls(**other)) == (ref != REFERENCES[cls](**other)) is True


def test_another_class_is_never_equal(cls):
    values = _values(cls)
    rec, ref = _both(cls, **values)
    assert rec.__eq__(ref) is NotImplemented and ref.__eq__(rec) is NotImplemented
    assert rec != ref and not rec == ref
    fields = tuple(values.values())
    assert rec.__eq__(fields) is NotImplemented and ref.__eq__(fields) is NotImplemented
    assert rec != fields and ref != fields
    another = next(c for c in CLASSES if c is not cls)
    assert rec.__eq__(another(**_values(another))) is NotImplemented


def test_hash_is_the_dataclass_hash(cls):
    names, _ = RECORDS[cls]
    values = _values(cls)
    rec, ref = _both(cls, **values)
    assert hash(rec) == hash(ref) == hash(tuple(values.values()))
    assert hash(rec) == hash(cls(**values))
    for name in names:
        rec, ref = _both(cls, **{**values, name: {}})
        with pytest.raises(TypeError):
            hash(ref)
        with pytest.raises(TypeError):
            hash(rec)


def test_repr_is_the_dataclass_repr(cls):
    rec, ref = _both(cls, **_values(cls))
    assert repr(rec) == repr(ref)
    assert repr(rec).startswith(f"{cls.__name__}(")
    nested, nested_ref = _both(cls, *[rec] * len(RECORDS[cls][0]))
    assert repr(nested) == repr(nested_ref).replace(repr(ref), repr(rec))


def test_positional_keyword_and_default_construction(cls):
    names, defaults = RECORDS[cls]
    values = _values(cls)
    rec, ref = _both(cls, *values.values())
    assert rec == cls(**values)
    assert repr(rec) == repr(ref)
    for name in names:
        assert getattr(rec, name) == getattr(ref, name) == values[name]
    required = {name: values[name] for name in names if name not in defaults}
    rec, ref = _both(cls, **required)
    for name in names:
        assert getattr(rec, name) == getattr(ref, name) == {**defaults, **required}[name]
    # the first field positionally, the rest by keyword
    first, *rest = names
    rec, ref = _both(cls, values[first], **{name: values[name] for name in rest})
    assert rec == cls(**values) and repr(rec) == repr(ref)


def _calls(cls):
    """(args, kwargs) of constructor calls that do not fill each field
    exactly once."""
    names, defaults = RECORDS[cls]
    values = _values(cls)
    calls = []
    for name in names:
        if name not in defaults:  # a missing argument
            calls.append(((), {n: v for n, v in values.items() if n != name}))
    calls.append(((), {**values, "unknown": 1}))
    # a missing and an unknown argument, so the count is right
    calls.append(((), {**{n: v for n, v in values.items() if n != names[0]}, "unknown": 1}))
    calls.append(((values[names[0]],), values))  # the first field twice
    calls.append((tuple(values.values()), {names[-1]: 1}))  # the last field twice
    calls.append((tuple(values.values()) + (1,), {}))  # one positional too many
    calls.append(((), {}))
    return calls


def test_bad_arguments_raise_type_error(cls):
    for args, kwargs in _calls(cls):
        with pytest.raises(TypeError):
            REFERENCES[cls](*args, **kwargs)
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)


def test_assignment_and_deletion_raise_attribute_error(cls):
    names, _ = RECORDS[cls]
    values = _values(cls)
    rec, ref = _both(cls, **values)
    for target in (rec, ref):
        for name in (*names, "unknown"):
            with pytest.raises(AttributeError):
                setattr(target, name, 1)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert rec == cls(**values)
    assert not hasattr(rec, "unknown")
