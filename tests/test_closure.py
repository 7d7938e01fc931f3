"""Property: generate_subgroup against a plain breadth-first closure,
and FiniteGroup.generators against the greedy rule computed by brute force.

The oracles multiply out elements on a copy of the Cayley table until no
product is new, and record nothing of the coset-at-a-time closure they
check.
"""

import random

import pytest

from finhaar.catalog import bundled_catalog
from finhaar.groups import (
    build_table_group,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    symmetric_group,
)

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


# -- FiniteGroup.generators against the greedy rule by brute force -------------


def _greedy_generators(table):
    """Each element, in index order, outside the closure of those kept
    before it; the closure is grown by products of all its members until
    no product is new."""
    identity = next(e for e, row in enumerate(table) if row == list(range(len(table))))
    kept, closure = [], {identity}
    for x in range(len(table)):
        if x in closure:
            continue
        kept.append(x)
        closure.add(x)
        while True:
            products = {table[a][b] for a in closure for b in closure}
            if products <= closure:
                break
            closure |= products
    return tuple(kept)


def _tabulated_subgroups(G, count, seed):
    """``count`` subgroups of G, each generated by one or two random
    elements and relabelled in member order as a group of its own."""
    rng = random.Random(seed)
    table = G.table()
    for _ in range(count):
        gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 2))]
        members = _bfs_closure(table, G.identity, gens)
        index = {x: i for i, x in enumerate(members)}
        yield [[index[table[x][y]] for y in members] for x in members]


def _generator_cases():
    yield from (CATALOG.get(label).group for label in CATALOG.labels())
    yield from (symmetric_group(4), symmetric_group(5))
    yield from (dihedral_group(n) for n in range(1, 40))
    yield from (cyclic_group(n) for n in range(1, 40))
    S5 = symmetric_group(5)
    for i, table in enumerate(_tabulated_subgroups(S5, 20, seed=5)):
        yield build_table_group(table, label=f"S5-sub{i}")


@pytest.mark.parametrize("G", [pytest.param(G, id=G.label) for G in _generator_cases()])
def test_generators_follow_the_greedy_rule(G):
    assert G.generators == _greedy_generators(G.table())
