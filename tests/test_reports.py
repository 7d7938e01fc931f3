"""Report encoding against the stdlib: ``Report.to_json`` and the encoder
behind it must give exactly ``json.dumps(obj, indent=2, sort_keys=True)``."""

import enum
import json
from collections import OrderedDict
from fractions import Fraction

import pytest

from finhaar import cli
from finhaar.catalog import bundled_catalog
from finhaar.engel import (
    is_2engel,
    lower_central_series,
    verify_cube_law,
    verify_engel_consequences,
)
from finhaar.families import heisenberg_group_3, symmetric_group
from finhaar.groups import generate_subgroup, identity_automorphism
from finhaar.measure import average_translate_intersection, k_large_certificate
from finhaar.reports import Report, _encode, _int_rows, jsonable
from finhaar.towers import Tower
from finhaar.wordsets import (
    coset_witness,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    torsion_set,
)

from conftest import examples
from test_acceptance import CLI_SWEEP
from test_cli import ALL_COMMANDS
from test_golden import PROOF_COMMANDS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


_INTS = st.integers() | st.sampled_from([2**64, -(2**64) - 1, 10**40, -1, 0])
_FLOATS = st.floats() | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300])
_TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t", "é", "€𝄞", ""])
# an int list with one bool in it must not take the int-only join
_INT_LISTS = st.lists(_INTS, min_size=1).flatmap(
    lambda xs: st.integers(0, len(xs)).map(lambda i: xs[:i] + [True] + xs[i:])
)
# lists of dicts with one key set and only exact int values take the template
# path; _odd_rows() are such lists with one value or key set apart, which must not
_KEYS = st.lists(_TEXT | st.sampled_from(["%", "%d", "a%sb", "{0}"]), min_size=1, max_size=3, unique=True)
_INT_ROWS = _KEYS.flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({k: _INTS for k in keys}), min_size=1, max_size=4)
)


class _Int(int):
    pass


@st.composite
def _odd_rows(draw):
    """Int rows, two at least, with one value made a bool, None or an int
    subclass, or one key taken out or put in."""
    rows = draw(_INT_ROWS)
    rows = [dict(row) for row in rows + rows[:1]]
    row = draw(st.sampled_from(rows))
    key = draw(st.sampled_from(sorted(row)))
    how = draw(st.sampled_from(["bool", "none", "subclass", "missing", "extra"]))
    if how == "missing":
        del row[key]
    elif how == "extra":
        while key in row:
            key += "+"
        row[key] = 0
    else:
        row[key] = {"bool": True, "none": None, "subclass": _Int(row[key])}[how]
    return rows


_LEAVES = (
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _INT_LISTS | st.lists(_INTS)
    | _INT_ROWS | _odd_rows()
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_TEXT, children)
    ),
    max_leaves=40,
)


@examples(100)
@hypothesis.given(_TREES)
def test_the_encoder_is_json_dumps(tree):
    assert _encode(tree) == reference(tree)


@examples(100)
@hypothesis.given(_INT_ROWS)
def test_int_rows_take_the_template(rows):
    assert _int_rows(rows, "\n  ") is not None
    assert _encode(rows) == reference(rows)


@examples(100)
@hypothesis.given(_odd_rows())
def test_odd_rows_do_not_take_the_template(rows):
    assert _int_rows(rows, "\n  ") is None
    assert _encode(rows) == reference(rows)


def _domain_values():
    """Values that are not plain JSON data: each kind ``jsonable`` converts."""
    s3, heis = symmetric_group(3), heisenberg_group_3()
    word = torsion_set(s3, 2)
    proof = extract_engel_subgroup(s3, identity_automorphism(s3), mode="proof")
    return [
        Fraction(2, 3),
        Fraction(-5),
        complex(0.5, -1.25),
        generate_subgroup(s3, [2]),
        word,
        coset_witness(word),
        k_large_certificate(word.subset, 2),
        proof,
        proof.proof_following,
        extract_engel_subgroup(s3, identity_automorphism(s3), mode="both"),
        is_2engel(heis),
        lower_central_series(heis),
    ]


_DOMAIN = _domain_values()
_MIXED = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _INT_ROWS | st.sampled_from(_DOMAIN),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
    ),
    max_leaves=10,
)


@examples(100)
@hypothesis.given(
    _TEXT,
    _TEXT | st.none(),
    st.dictionaries(_TEXT, _MIXED, max_size=3),
    st.lists(_MIXED, max_size=3),
)
def test_to_json_is_json_dumps_of_the_payload(command, catalog, parameters, results):
    report = Report(command, catalog, parameters, results)
    assert report.to_json() == reference(report.payload()) + "\n"


_ARGVS = {" ".join(argv): argv for argv in ALL_COMMANDS + CLI_SWEEP + PROOF_COMMANDS}


@pytest.mark.parametrize("argv", _ARGVS.values(), ids=_ARGVS)
def test_every_payload_is_json_dumps(monkeypatch, capsys, argv):
    reports = []

    def record(args, run=cli.run_command):
        report, finding = run(args)
        reports.append(report)
        return report, finding

    monkeypatch.setattr(cli, "run_command", record)
    assert cli.main(argv) == 0
    (report,) = reports
    assert capsys.readouterr().out == reference(report.payload()) + "\n"


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": [{None: 0}]}, {"a": 0, 2: 1}])
def test_a_key_that_is_not_a_str_raises(obj):
    with pytest.raises(TypeError):
        _encode(obj)


class _Str(str):
    pass


class _Small(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize(
    "obj",
    [_Str("a\"b"), _Small.TWO, [_Small.TWO, 3], {"k": _Str("v")}, OrderedDict(b=1, a=[True])],
    ids=repr,
)
def test_subclasses_encode_as_json_dumps_does(obj):
    assert _encode(obj) == reference(obj)


# -- record payloads --------------------------------------------------------------

EXTRACTION_KEYS = {
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
}
COMMUTATOR_KEYS = {
    "law",
    "holds",
    "applicable",
    "counterexample",
    "triples_checked",
    "qualifying_triples",
    "nilpotency_class",
}


@pytest.mark.parametrize("extract", [extract_abelian_subgroup, extract_engel_subgroup])
def test_an_extraction_payload_has_exactly_its_keys(extract):
    G = symmetric_group(3)
    assert set(jsonable(extract(G, identity_automorphism(G)))) == EXTRACTION_KEYS


@pytest.mark.parametrize(
    "report",
    [
        lambda: is_2engel(symmetric_group(3)),
        lambda: verify_cube_law(symmetric_group(3)),
        lambda: verify_engel_consequences(heisenberg_group_3()),
        lambda: verify_engel_consequences(symmetric_group(3)),
    ],
    ids=["2engel-fails", "cube-law", "consequences", "not-applicable"],
)
def test_a_commutator_payload_has_exactly_its_keys(report):
    report = report()
    out = jsonable(report)
    assert set(out) == COMMUTATOR_KEYS
    assert out["holds"] is report.holds


@pytest.mark.parametrize(
    "record",
    [
        bundled_catalog,
        lambda: bundled_catalog().get("S3"),
        lambda: Tower(name="t", levels=(), maps=()),
        lambda: average_translate_intersection([torsion_set(symmetric_group(3), 2).subset]),
    ],
    ids=["Catalog", "CatalogEntry", "Tower", "AveragedIntersection"],
)
def test_a_record_without_a_payload_rule_is_not_serialized(record):
    with pytest.raises(TypeError, match="cannot serialize"):
        jsonable(record())
