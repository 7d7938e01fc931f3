"""Property: generate_subgroup against ``oracles.closure``, and
FiniteGroup.generators against the greedy rule computed with it.

The oracle multiplies out elements on a copy of the Cayley table until no
product is new, and records nothing of the coset-at-a-time closure it
checks.
"""

import random

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.families import cyclic_group, dihedral_group, symmetric_group
from finhaar.groups import build_table_group, generate_subgroup

from conftest import greedy_generators

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = bundled_catalog()
GROUPS = [symmetric_group(5)] + [CATALOG.get(label).group for label in CATALOG.labels()]
TABLES = [G.table() for G in GROUPS]
IDENTITIES = [oracles.identity_of(table) for table in TABLES]


@st.composite
def closure_cases(draw):
    """A group, and 1 to 3 of its elements followed by repeats of them
    and members of the subgroup they generate, in some order."""
    i = draw(st.integers(0, len(GROUPS) - 1))
    G = GROUPS[i]
    drawn = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3))
    inside = sorted(oracles.closure(TABLES[i], drawn, IDENTITIES[i]))
    extra = draw(st.lists(st.sampled_from(drawn) | st.sampled_from(inside), max_size=3))
    return i, draw(st.permutations(drawn + extra))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(closure_cases())
def test_generate_subgroup_matches_a_breadth_first_closure(case):
    i, gens = case
    G = GROUPS[i]
    H = generate_subgroup(G, gens)
    assert H.members == tuple(sorted(oracles.closure(TABLES[i], gens, IDENTITIES[i])))
    assert H.generators == tuple(dict.fromkeys(gens))


# -- FiniteGroup.generators against the greedy rule by brute force -------------


def _tabulated_subgroups(G, count, seed):
    """``count`` subgroups of G, each generated by one or two random
    elements and relabelled in member order as a group of its own."""
    rng = random.Random(seed)
    table = G.table()
    for _ in range(count):
        gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 2))]
        members = sorted(oracles.closure(table, gens, oracles.identity_of(table)))
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
    assert G.generators == greedy_generators(G.table())
