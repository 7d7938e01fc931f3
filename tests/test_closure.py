"""Property: generate_subgroup against a plain breadth-first closure.

The oracle multiplies out the generators on a copy of the Cayley table
until no product is new, one element at a time, and records nothing of
the coset-at-a-time closure it checks.
"""

import pytest

from finhaar.catalog import bundled_catalog
from finhaar.groups import generate_subgroup, symmetric_group

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = bundled_catalog()
GROUPS = [symmetric_group(5)] + [CATALOG.get(label).group for label in CATALOG.labels()]
TABLES = [G.table() for G in GROUPS]


def _bfs_closure(table, identity, gens):
    """Members of the subgroup ``gens`` generate: the identity and every
    product reached from it by right multiplication by a generator."""
    members, frontier = {identity}, [identity]
    while frontier:
        reached = {table[x][g] for x in frontier for g in gens}
        frontier = sorted(reached - members)
        members.update(frontier)
    return tuple(sorted(members))


@st.composite
def closure_cases(draw):
    """A group, and 1 to 3 of its elements followed by repeats of them
    and members of the subgroup they generate, in some order."""
    i = draw(st.integers(0, len(GROUPS) - 1))
    G = GROUPS[i]
    drawn = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    inside = _bfs_closure(TABLES[i], G.identity, drawn)
    extra = draw(st.lists(st.sampled_from(drawn) | st.sampled_from(inside), max_size=3))
    return i, draw(st.permutations(drawn + extra))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(closure_cases())
def test_generate_subgroup_matches_a_breadth_first_closure(case):
    i, gens = case
    G = GROUPS[i]
    H = generate_subgroup(G, gens)
    assert H.members == _bfs_closure(TABLES[i], G.identity, gens)
    assert H.generators == tuple(dict.fromkeys(gens))
