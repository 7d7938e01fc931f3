"""Property test for the one rule for element indices (``_index_list``)."""

import pytest

from finhaar.groups import _index_list

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=300, deadline=None)


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
