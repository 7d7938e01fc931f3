"""The bounded products of a seed built letter by letter from the
products before it (``wordsets._next_levels``) against multiplying them
out (``_products_up_to``)."""

import pytest

from finhaar import wordsets
from finhaar.catalog import bundled_catalog
from finhaar.families import dihedral_group

from conftest import examples
from test_wordsets import _products_up_to

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@examples(60)
@hypothesis.given(
    which=st.sampled_from(["S4", "D16", "Heis27"]),
    picks=st.lists(st.integers(min_value=0), min_size=1, max_size=6),
    length=st.integers(min_value=1, max_value=4),
)
def test_levels_built_letter_by_letter_are_the_bounded_products(which, picks, length):
    G = {
        "S4": lambda: bundled_catalog().get("S4").group,
        "D16": lambda: dihedral_group(8),
        "Heis27": lambda: bundled_catalog().get("Heis27").group,
    }[which]()
    letters, levels = [G.identity], [{G.identity}] * length
    for x in picks:
        x %= G.order
        if x in letters:
            continue
        new = sorted({x, G.inv(x)})
        levels = wordsets._next_levels(G, sorted(letters), new, levels)
        letters += new
        for k in range(1, length + 1):
            assert sorted(levels[k - 1]) == _products_up_to(G.table(), letters, k)
