"""Soundness of the paper's constructions, checked on each catalog
group's Cayley table with ``oracles`` and conftest's ``Arithmetic``:

- a pair certificate's witness lies in every translate the certificate
  names and forces its law; no witness means those translates have no
  common element;
- an extracted subgroup is a normal subgroup that satisfies its law, and
  the abelian extraction's coset tH lies inside the inverted set;
- the average of |x_1 A_1 ∩ ... ∩ x_n A_n| over all translate tuples is
  the product of the measures of the A_i;
- the coset witness of a subset X is the least (-|H|, members of H, t)
  over the subgroups H, listed by ``oracles.all_subgroups``, and t in X with
  tH inside X.
"""

import itertools
import random
from fractions import Fraction

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.families import dihedral_group
from finhaar.measure import Subset, average_translate_intersection
from finhaar.wordsets import (
    WordSet,
    commuting_certificate,
    coset_witness,
    engel_pair_certificate,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    inverted_set,
    splitting_set,
)

from conftest import Arithmetic

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CATALOG = bundled_catalog()
ENTRIES = list(CATALOG.entries)


def _word_set(ar, kind, aut_map):
    n = len(ar.t)
    if kind == "inverted":
        return {x for x in range(n) if aut_map[x] == ar.inv[x]}
    return {x for x in range(n) if ar.mul(aut_map[aut_map[x]], aut_map[x], x) == ar.e}


def _declared_automorphism(draw, entry, splitting):
    """A declared automorphism of the entry, of order dividing 3 when it
    defines a splitting set."""
    names = sorted(
        name for name, aut in entry.automorphisms.items()
        if not splitting or 3 % aut.order == 0
    )
    return entry.automorphisms[draw(st.sampled_from(names))]


@st.composite
def certificate_cases(draw):
    kind = draw(st.sampled_from(["inverted", "splitting"]))
    entry = draw(st.sampled_from(ENTRIES))
    aut = _declared_automorphism(draw, entry, kind == "splitting")
    a = draw(st.integers(0, entry.group.order - 1))
    b = draw(st.integers(0, entry.group.order - 1))
    return kind, entry, aut, a, b


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(certificate_cases())
def test_pair_certificates_are_sound(case):
    kind, entry, aut, a, b = case
    G = entry.group
    ar = Arithmetic(G.table())
    A = _word_set(ar, kind, list(aut.map))
    ia, ib, ab = ar.inv[a], ar.inv[b], ar.mul(a, b)
    if kind == "inverted":
        witness = commuting_certificate(inverted_set(G, aut), a, b)
        shifts = [ar.e, ia, ib, ar.inv[ab]]
        law_holds = ar.comm(a, b) == ar.e
    else:
        witness = engel_pair_certificate(splitting_set(G, aut), a, b)
        shifts = [ar.e, a, ia, ib, ar.mul(a, ib), ar.mul(b, ia), ab, ar.inv[ab]]
        law_holds = ar.comm(ar.comm(a, b), b) == ar.e
    common = set.intersection(*(ar.translate(c, A) for c in shifts))
    if witness is None:
        assert not common
    else:
        assert law_holds
        assert witness == min(common)


@st.composite
def extraction_cases(draw):
    kind = draw(st.sampled_from(["abelian", "two-engel"]))
    entry = draw(st.sampled_from(ENTRIES))
    aut = _declared_automorphism(draw, entry, kind == "two-engel")
    mode = draw(st.sampled_from(["proof", "direct", "both"]))
    length = draw(st.integers(1, 3))
    return kind, entry, aut, mode, length


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(extraction_cases())
def test_extracted_subgroups_are_normal_and_satisfy_their_law(case):
    kind, entry, aut, mode, length = case
    G = entry.group
    ar = Arithmetic(G.table())
    extract = extract_abelian_subgroup if kind == "abelian" else extract_engel_subgroup
    report = extract(G, aut, mode=mode, length=length)
    found = [report.result] + [
        r.subgroup for r in (report.proof_following, report.direct_search) if r is not None
    ]
    for H in found:
        assert ar.e in H.members and oracles.is_subgroup(ar.t, H.members)
        assert oracles.is_normal(ar.t, ar.inv, H.members)
        if kind == "abelian":
            assert oracles.is_abelian_on(ar.t, H.members)
        else:
            assert oracles.is_2engel_on(ar.t, ar.inv, H.members)
    if kind == "abelian":
        W = report.coset_witness
        A = _word_set(ar, "inverted", list(aut.map))
        assert ar.translate(W.t, W.subgroup.members) <= A


@st.composite
def averaging_cases(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    n = draw(st.integers(1, 3).filter(lambda n: order**n <= 1000))
    sets = [draw(st.sets(st.integers(0, order - 1))) for _ in range(n)]
    return entry, sets


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(averaging_cases())
def test_the_translate_average_is_the_product_of_the_measures(case):
    entry, sets = case
    G = entry.group
    ar = Arithmetic(G.table())
    order = len(ar.t)
    translates = [[ar.translate(x, A) for x in range(order)] for A in sets]
    total = sum(
        len(set.intersection(*(row[x] for row, x in zip(translates, xs))))
        for xs in itertools.product(range(order), repeat=len(sets))
    )
    brute = Fraction(total, order ** (len(sets) + 1))
    product = Fraction(1)
    for A in sets:
        product *= Fraction(len(A), order)
    out = average_translate_intersection([Subset.from_indices(G, A) for A in sets])
    assert out.average == brute == product
    assert out.product_of_measures == product


def test_the_translate_average_at_order_128():
    # a kernel-ladder sized order, where the count of the last
    # translates runs to several bit-planes
    G = dihedral_group(64)
    ar = Arithmetic(G.table())
    rng = random.Random("average-D128")
    sets = [{x for x in range(128) if rng.random() < p} for p in (0.3, 0.6)]
    first, second = ([ar.translate(x, A) for x in range(128)] for A in sets)
    total = sum(len(xA & yB) for xA in first for yB in second)
    out = average_translate_intersection([Subset.from_indices(G, A) for A in sets])
    assert out.average == Fraction(total, 128**3)
    assert out.average == Fraction(len(sets[0]) * len(sets[1]), 128**2)


@st.composite
def subset_cases(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    X = draw(st.sets(st.integers(0, order - 1), min_size=1))
    return entry, X


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(subset_cases())
def test_the_coset_witness_is_the_largest_coset_then_the_least(case):
    entry, X = case
    G = entry.group
    table = G.table()
    best = min(
        (-len(H), tuple(sorted(H)), t)
        for H in oracles.all_subgroups(table)
        for t in X
        if oracles.left_translate(table, t, H) <= X
    )
    W = coset_witness(WordSet(group=G, kind="torsion", subset=Subset.from_indices(G, X)))
    assert W.fallback is None
    assert (W.subgroup.members, W.t) == best[1:]
