"""Property tests for the translate scans in ``finhaar.measure``, each
against a walk written here with the test's own arithmetic on the
catalog groups' Cayley tables:

- k_large_certificate gives the certificate, or the budget message, of
  a walk that checks one set of distinct members at a time and charges
  one check each;
- the translate average, whose last coordinate is summed as bit-planes,
  equals the plain sum over tuples for any table of masks, forged ones
  included;
- LargenessCertificate.validate equals a check of every ordered k-tuple.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from finhaar.catalog import bundled_catalog
from finhaar.errors import SearchBudgetExceeded
from finhaar.measure import (
    EXHAUSTIVE_ORDER_LIMIT,
    LargenessCertificate,
    Subset,
    average_translate_intersection,
    k_large_certificate,
)

from conftest import Arithmetic, examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = list(bundled_catalog().entries)


def _subsets(order, min_size=0):
    """Any subset, or the complement of a small one, so that sets large
    enough to meet most of their translates are drawn too."""
    every = st.sets(st.integers(0, order - 1), min_size=min_size)
    large = st.sets(st.integers(0, order - 1), max_size=min(3, order - min_size)).map(
        lambda small: set(range(order)) - small
    )
    return st.one_of(every, large)


def reference_search(ar, base, k, strategy, limit, label):
    """The certificate search, one set check at a time.

    U starts as {e}.  A class C joins a valid U when every set of
    min(k, |U - {e}| + |C|) distinct members of (U - {e}) ∪ C that
    meets C meets the base: its part D in C ({x}, {x^-1}, then
    {x, x^-1}), and for each part the rest of the set drawn from the
    sorted U - {e} in ``itertools.combinations`` order.  Every check
    costs one unit, and the check past ``limit`` raises before it is
    made.  Returns (members of U, checks used).
    """
    order = len(ar.t)
    translates = [ar.translate(x, base) for x in range(order)]
    used = 0

    def extends(old, new):
        nonlocal used
        rest = sorted(old - {ar.e})
        size = min(k, len(rest) + len(new))
        parts = [(x,) for x in new] + ([tuple(new)] if len(new) == 2 else [])
        for part in parts:
            if len(part) > size:
                continue
            for tail in itertools.combinations(rest, size - len(part)):
                used += 1
                if used > limit:
                    raise SearchBudgetExceeded(
                        f"{label}: set checks {used} exceed budget {limit}"
                    )
                if not base.intersection(*(translates[u] for u in part + tail)):
                    return False
        return True

    e = ar.e
    classes = sorted({tuple(sorted({x, ar.inv[x]})) for x in range(order) if x != e})
    if strategy == "greedy":
        members = {e}
        for cls in classes:
            if extends(members, cls):
                members.update(cls)
        return tuple(sorted(members)), used
    best = (e,)

    def branch(members, idx):
        nonlocal best
        current = tuple(sorted(members))
        if len(current) > len(best) or (len(current) == len(best) and current < best):
            best = current
        if len(members) + sum(len(c) for c in classes[idx:]) < len(best):
            return
        for i in range(idx, len(classes)):
            if extends(members, classes[i]):
                branch(members | set(classes[i]), i + 1)

    branch({e}, 0)
    return best, used


@st.composite
def budget_cases(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    strategy = draw(st.sampled_from(
        ["greedy", "exhaustive"] if order <= EXHAUSTIVE_ORDER_LIMIT else ["greedy"]
    ))
    k = draw(st.integers(1, 3))
    base = draw(_subsets(order, min_size=1))
    ar = Arithmetic(entry.group.table())
    _, checks = reference_search(ar, base, k, strategy, float("inf"), entry.label)
    budget = draw(st.one_of(
        st.integers(max(0, checks - 3), checks + 3), st.integers(0, checks)
    ))
    return entry, ar, base, k, strategy, budget


@examples(150)
@hypothesis.given(budget_cases())
def test_the_budget_counts_every_tuple_up_to_the_first_miss(case):
    entry, ar, base, k, strategy, budget = case
    G = entry.group
    try:
        expected = reference_search(ar, base, k, strategy, budget, entry.label)[0]
    except SearchBudgetExceeded as exc:
        with pytest.raises(SearchBudgetExceeded) as info:
            k_large_certificate(Subset.from_indices(G, base), k, strategy, budget)
        assert str(info.value) == str(exc)
    else:
        cert = k_large_certificate(Subset.from_indices(G, base), k, strategy, budget)
        assert tuple(cert.u_set.indices()) == expected


@st.composite
def forged_tables(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    n = draw(st.integers(1, 3).filter(lambda n: order**n <= 1000))
    masks = st.integers(0, (1 << order) - 1)
    sets = []
    for _ in range(n):
        A = Subset(entry.group, draw(masks))
        A._translates = tuple(draw(st.lists(masks, min_size=order, max_size=order)))
        sets.append(A)
    return sets


@examples(200)
@hypothesis.given(forged_tables())
def test_the_average_is_the_sum_over_tuples_for_any_mask_table(sets):
    order = sets[0].group.order
    full = (1 << order) - 1
    total = sum(
        functools.reduce(int.__and__, masks, full).bit_count()
        for masks in itertools.product(*(A._translates for A in sets))
    )
    out = average_translate_intersection(sets)
    assert out.average == Fraction(total, order ** (len(sets) + 1))


@st.composite
def certificates(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    ar = Arithmetic(entry.group.table())
    base = draw(_subsets(order))
    drawn = draw(_subsets(order))
    shape = draw(st.sampled_from(["as drawn", "symmetric", "symmetric without identity"]))
    if shape == "as drawn":
        U = drawn
    else:
        U = drawn | {ar.inv[x] for x in drawn} | {ar.e}
        if shape == "symmetric without identity":
            U.discard(ar.e)
    k = draw(st.integers(1, 3))
    return entry, ar, base, U, k


@examples(300)
@hypothesis.given(certificates())
def test_validate_checks_every_ordered_tuple(case):
    entry, ar, base, U, k = case
    G = entry.group
    expected = (
        ar.e in U
        and U == {ar.inv[u] for u in U}
        and all(
            base.intersection(*(ar.translate(u, base) for u in tup))
            for tup in itertools.product(sorted(U), repeat=k)
        )
    )
    cert = LargenessCertificate(
        G, Subset.from_indices(G, base), k, Subset.from_indices(G, U)
    )
    assert cert.validate() == expected
