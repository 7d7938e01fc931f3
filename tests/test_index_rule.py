"""Property test for the one rule for element indices (``_index_list``),
and the whole-table check of ``build_table_group`` against it."""

import pytest

from finhaar.groups import _index_list, build_table_group

from conftest import examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = examples(300)


@st.composite
def row_with_bad_entries(draw):
    """A list of in-range ints with one or two bad entries inserted, and
    the first bad entry by position."""
    n = draw(st.integers(1, 40))
    row = draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    bad = [-1, n, n + 7, True, 2.0, "x", None]
    positions = []
    for _ in range(draw(st.integers(1, 2))):
        pos = draw(st.integers(0, len(row)))
        row.insert(pos, draw(st.sampled_from(bad)))
        # an earlier insertion at or after pos moved one to the right
        positions = [p + (p >= pos) for p in positions] + [pos]
    return n, row, row[min(positions)]


@SETTINGS
@hypothesis.given(row_with_bad_entries())
def test_the_first_bad_entry_is_named(data):
    n, row, first_bad = data
    with pytest.raises(ValueError) as info:
        _index_list(row, n, "rule")
    assert str(info.value) == f"rule: entry {first_bad!r} out of range 0..{n - 1}"


@SETTINGS
@hypothesis.given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=3 * n))
))
def test_a_valid_row_comes_back_as_a_new_equal_list(data):
    n, row = data
    out = _index_list(row, n, "rule")
    assert out == row and out is not row
    assert type(out) is list and {type(v) for v in out} <= {int}


# -- build_table_group checks a whole table at once ------------------------------
# and falls back to the rule row by row only to name the first bad entry

N = 5
Z5 = [[(i + j) % N for j in range(N)] for i in range(N)]


def _row_by_row_error(table, label):
    with pytest.raises(ValueError) as info:
        [_index_list(row, len(table), label) for row in table]
    return str(info.value)


@pytest.mark.parametrize("bad", [True, 1.5, "1", None, -1, N], ids=repr)
@pytest.mark.parametrize("row", [0, N // 2, N - 1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("col", [0, N - 1], ids=["col0", "col-last"])
def test_a_bad_table_entry_is_named_as_row_by_row(bad, row, col):
    table = [r[:] for r in Z5]
    table[row][col] = bad
    with pytest.raises(ValueError) as info:
        build_table_group(table, label="T")
    assert str(info.value) == _row_by_row_error(table, "T")
    assert str(info.value) == f"T: entry {bad!r} out of range 0..{N - 1}"


def test_a_table_of_numpy_integers_passes_as_python_ints():
    np = pytest.importorskip("numpy")
    G = build_table_group([[np.int64(v) for v in r] for r in Z5], label="T")
    assert G.table() == Z5
    assert {type(v) for r in G.table() for v in r} == {int}


def test_the_table_rows_are_copied():
    table = [r[:] for r in Z5]
    G = build_table_group(table, label="T")
    table[0][0] = 3
    assert G.table() == Z5
