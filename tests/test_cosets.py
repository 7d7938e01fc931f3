"""Property: the mask-based coset tests against cosets multiplied out by hand.

``_best_coset_slice`` and ``CosetWitness.validate`` read X's translate
table; the oracles here list each coset tH with ``oracles.left_translate``
on a copy of the Cayley table (``G.table()``) and test membership in X
one element at a time.
"""

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.families import symmetric_group
from finhaar.groups import generate_subgroup
from finhaar.measure import Subset
from finhaar.wordsets import (
    CosetWitness,
    WordSet,
    _best_coset_slice,
    coset_witness,
    torsion_set,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = bundled_catalog()
GROUPS = [symmetric_group(4)] + [CATALOG.get(label).group for label in CATALOG.labels()]
TABLES = [G.table() for G in GROUPS]


def _word_set(G, members):
    """A word set whose subset is ``members``: the code under test reads
    only its group and subset."""
    return WordSet(group=G, kind="torsion", subset=Subset.from_indices(G, members), exponent=1)


def _best_coset_by_hand(table, target, members):
    """The coset with the largest overlap with ``target``, cosets taken
    in order of their least element and a tie kept by the earlier one;
    its least target element t and the slice {a in K : ta in target}."""
    cosets = {frozenset(oracles.left_translate(table, r, members)) for r in range(len(table))}
    best = []
    for coset in sorted(cosets, key=min):
        inside = sorted(coset & target)
        if len(inside) > len(best):
            best = inside
    t = best[0]
    return t, [a for a in members if table[t][a] in target]


@st.composite
def coset_cases(draw):
    """A group, a non-empty target subset, a subgroup generated by one or
    two elements and an element t."""
    i = draw(st.integers(0, len(GROUPS) - 1))
    G = GROUPS[i]
    target = draw(st.sets(st.integers(0, G.order - 1), min_size=1))
    gens = draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=2))
    t = draw(st.integers(0, G.order - 1))
    return i, target, generate_subgroup(G, gens), t


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(coset_cases())
def test_the_best_coset_slice_is_the_one_found_by_hand(case):
    i, target, K, _t = case
    G = GROUPS[i]
    expected = _best_coset_by_hand(TABLES[i], target, K.members)
    assert _best_coset_slice(G, _word_set(G, target), K) == expected


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(coset_cases())
def test_validate_is_the_coset_tested_by_hand(case):
    i, target, H, t = case
    G = GROUPS[i]
    witness = CosetWitness(group=G, subgroup=H, t=t, target=_word_set(G, target))
    assert witness.validate() == (oracles.left_translate(TABLES[i], t, H.members) <= target)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(coset_cases())
def test_validate_holds_on_a_coset_inside_its_target(case):
    # random targets seldom hold a whole coset: this one is the coset, and
    # then the coset without the image of H's last member
    i, _target, H, t = case
    G = GROUPS[i]
    inside = oracles.left_translate(TABLES[i], t, H.members)
    witness = CosetWitness(group=G, subgroup=H, t=t, target=_word_set(G, inside))
    assert witness.validate()
    short = inside - {TABLES[i][t][H.members[-1]]}
    assert not CosetWitness(group=G, subgroup=H, t=t, target=_word_set(G, short)).validate()


@pytest.mark.parametrize("i", range(len(GROUPS)), ids=[G.label for G in GROUPS])
@pytest.mark.parametrize("n", [2, 3])
def test_the_witness_t_is_the_least_by_hand(i, n):
    G, table = GROUPS[i], TABLES[i]
    X = torsion_set(G, n)
    W = coset_witness(X)
    target = set(X.subset.indices())
    H = W.subgroup.members
    fits = [t for t in sorted(target) if oracles.left_translate(table, t, H) <= target]
    assert W.t == fits[0]
