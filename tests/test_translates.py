"""Property tests for set translates on S4 and D16."""

import importlib

import oracles
import pytest

from finhaar.families import dihedral_group, symmetric_group
from finhaar.measure import (
    Subset,
    average_translate_intersection,
    translate_intersection_measure,
)

from conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GROUPS = {"S4": symmetric_group(4), "D16": dihedral_group(8)}


@st.composite
def subset_and_points(draw):
    G = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    bits = draw(st.integers(0, (1 << G.order) - 1))
    x = draw(st.integers(0, G.order - 1))
    y = draw(st.integers(0, G.order - 1))
    return Subset(G, bits), x, y


SETTINGS = examples(200)


@SETTINGS
@hypothesis.given(subset_and_points())
def test_left_translates_compose(data):
    A, x, y = data
    assert A.left_translate(x).left_translate(y) == A.left_translate(A.group.table()[y][x])


@SETTINGS
@hypothesis.given(subset_and_points())
def test_inverse_set_is_an_involution(data):
    A, _, _ = data
    G = A.group
    assert A.inverse_set().inverse_set() == A
    inv = oracles.inverses(G.table())
    assert A.inverse_set() == Subset.from_indices(G, {inv[a] for a in A.indices()})


@SETTINGS
@hypothesis.given(subset_and_points())
def test_right_translate_is_the_set_of_products(data):
    A, x, _ = data
    G, table = A.group, A.group.table()
    assert A.right_translate(x) == Subset.from_indices(G, {table[a][x] for a in A.indices()})


@SETTINGS
@hypothesis.given(
    subset_and_points(),
    st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=40),
)
@hypothesis.example((Subset(GROUPS["S4"], 0), 0, 0), [(True, 5), (False, 3)])
@hypothesis.example((Subset(GROUPS["D16"], 1 << 9), 0, 0), [(False, 7), (True, 2)])
def test_remembered_translates_match_the_table(data, calls):
    """Repeated, nested and interleaved calls all see the table's translate."""
    A, _, _ = data
    G, cayley = A.group, A.group.table()
    current = A
    for from_base, x in calls:
        x %= G.order
        source = A if from_base else current
        translate = source.left_translate(x)
        assert set(translate.indices()) == oracles.left_translate(cayley, x, source.indices())
        current = translate
    table = A.translates()
    assert type(table) is tuple and len(table) == G.order
    for x in G.elements():
        expected = oracles.left_translate(cayley, x, A.indices())
        assert set(A.left_translate(x).indices()) == expected
        assert {a for a in G.elements() if table[x] >> a & 1} == expected


def test_the_table_is_built_once_per_subset(monkeypatch):
    G = GROUPS["S4"]
    builds = []
    # finhaar.measure the module, not the function that finhaar exports
    measure_module = importlib.import_module("finhaar.measure")
    real = measure_module._image_masks

    def counted(A, maps):
        builds.append((A, len(maps)))
        return real(A, maps)

    monkeypatch.setattr(measure_module, "_image_masks", counted)
    A = Subset.from_indices(G, [0, 3, 7, 11, 20])
    assert A.translates() is A.translates()
    for x in G.elements():
        A.left_translate(x)
    translate_intersection_measure([A, A], [1, 2])
    average_translate_intersection([A, A])
    # one build, of all |G| rows at once
    assert builds == [(A, G.order)]


def _torsion(G, n):
    """{g : g^n = 1} as a subset of G, from ``oracles.torsion``."""
    return Subset.from_indices(G, oracles.torsion(G.table(), n))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Subset.empty(GROUPS["D16"]),
        lambda: Subset.full(GROUPS["S4"]),
        lambda: Subset.full(symmetric_group(5)),
        lambda: _torsion(symmetric_group(6), 3),
        lambda: _torsion(dihedral_group(256), 2),
    ],
    ids=["D16-empty", "S4-full", "S5-full", "S6-cube-roots", "D512-torsion2"],
)
def test_translate_tables_at_the_benchmarked_orders(make):
    """Every entry, against products read straight from the Cayley table,
    at the orders where the table is built from whole rows."""
    A = make()
    G, cayley, members = A.group, A.group.table(), A.indices()
    table = A.translates()
    assert type(table) is tuple and len(table) == G.order
    for x in G.elements():
        assert table[x] == sum(1 << g for g in oracles.left_translate(cayley, x, members))
    inv = oracles.inverses(cayley)
    assert set(A.inverse_set().indices()) == {inv[a] for a in members}
    for x in G.elements():
        assert set(A.right_translate(x).indices()) == {cayley[a][x] for a in members}
