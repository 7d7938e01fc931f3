"""k-largeness against a brute-force oracle that knows nothing of the
row scan: U is valid for A and k when it holds the identity, is closed
under inverses, and A ∩ s_1 A ∩ ... ∩ s_j A is nonempty for every
subset {s_1, ..., s_j} of U with j <= k.  A k-tuple drawn from U with
repetition has a set of at most k distinct members, and every such set
is the set of some tuple, so this is the definition itself.  The oracle
walks every such subset with ``itertools.combinations`` and the test's
own table arithmetic; it is used for

- LargenessCertificate.validate on random (A, U, k);
- the greedy certificate: each inverse class in order of its least
  member, kept when the enlarged U passes the oracle;
- the exhaustive certificate: the largest U that passes, least members
  among those, over every set of inverse classes that passes (a subset
  of a passing U passes, by the oracle's own definition);

on the catalog groups, with k from 1 to |U| + 1, and on seeded random
bases of S3, D8 and Z9.
"""

import functools
import itertools
import random

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.measure import (
    EXHAUSTIVE_ORDER_LIMIT,
    LargenessCertificate,
    Subset,
    k_large_certificate,
)

from conftest import Arithmetic, examples

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENTRIES = list(bundled_catalog().entries)


def passes(ar, base, U, k):
    """The oracle: e in U, U = U^-1, and every subset of U of at most k
    members leaves its translate intersection with the base nonempty.
    Sets are bitmasks here only so that the walk is fast."""
    if ar.e not in U or U != {ar.inv[u] for u in U}:
        return False
    masks = _translate_masks(ar, frozenset(base))
    full = sum(1 << x for x in base)
    return all(
        functools.reduce(int.__and__, (masks[s] for s in S), full)
        for j in range(k + 1)
        for S in itertools.combinations(sorted(U), j)
    )


@functools.lru_cache(maxsize=64)
def _translate_masks(ar, base):
    """Bitmask of the left translate cA for each c, from ``ar.translate``."""
    return [sum(1 << x for x in ar.translate(c, base)) for c in range(len(ar.t))]


def inverse_classes(ar):
    order = len(ar.t)
    return sorted({tuple(sorted({x, ar.inv[x]})) for x in range(order) if x != ar.e})


def oracle_certificate(ar, base, k, strategy):
    classes = inverse_classes(ar)
    if strategy == "greedy":
        members = {ar.e}
        for cls in classes:
            if passes(ar, base, members | set(cls), k):
                members |= set(cls)
        return tuple(sorted(members))
    best = (ar.e,)

    def grow(members, idx):
        nonlocal best
        for i in range(idx, len(classes)):
            trial = members | set(classes[i])
            if passes(ar, base, trial, k):
                cand = tuple(sorted(trial))
                if (-len(cand), cand) < (-len(best), best):
                    best = cand
                grow(trial, i + 1)

    everything = set(range(len(ar.t)))
    if passes(ar, base, everything, k):  # saves walking every class set
        return tuple(sorted(everything))
    grow({ar.e}, 0)
    return best


def _strategies(G):
    return ["greedy", "exhaustive"] if G.order <= EXHAUSTIVE_ORDER_LIMIT else ["greedy"]


def _up_to_u_plus_one(G, A, strategy):
    """(k, certificate) for k = 1, 2, ... up to |U| + 1 of the k reached."""
    k = 1
    while True:
        cert = k_large_certificate(A, k, strategy)
        yield k, cert
        if k > cert.u_set.size:
            return
        k += 1


# torsion:2 and torsion:3 of every catalog group, except a whole group of
# order above 8 (Heis27's torsion:3): every set meets a whole group, so
# there the oracle would walk all 2^27 subsets of U = Heis27 at k = 28;
# full bases are covered by test_measure's full-base tests
TORSION_CASES = [
    (entry, n, strategy)
    for entry in ENTRIES
    for n in (2, 3)
    for strategy in _strategies(entry.group)
    if entry.group.order <= 8
    or len(oracles.torsion(entry.group.table(), n)) < entry.group.order
]


@pytest.mark.parametrize(
    "entry, n, strategy",
    TORSION_CASES,
    ids=[f"{e.label}-torsion{n}-{s}" for e, n, s in TORSION_CASES],
)
def test_certificates_on_torsion_sets_match_the_oracle(entry, n, strategy):
    G = entry.group
    ar = Arithmetic(G.table())
    base = oracles.torsion(ar.t, n)
    A = Subset.from_indices(G, base)
    for k, cert in _up_to_u_plus_one(G, A, strategy):
        U = tuple(cert.u_set.indices())
        assert U == oracle_certificate(ar, base, k, strategy), k
        assert passes(ar, base, set(U), k) and cert.validate()


SMALL = [entry for entry in ENTRIES if entry.group.order <= 9]


@st.composite
def small_searches(draw):
    entry = draw(st.sampled_from(SMALL))
    order = entry.group.order
    base = draw(st.sets(st.integers(0, order - 1), min_size=1))
    strategy = draw(st.sampled_from(["greedy", "exhaustive"]))
    k = draw(st.integers(1, order + 1))
    return entry, base, strategy, k


@examples(200)
@hypothesis.given(small_searches())
def test_certificates_on_random_bases_match_the_oracle(case):
    entry, base, strategy, k = case
    G = entry.group
    ar = Arithmetic(G.table())
    cert = k_large_certificate(Subset.from_indices(G, base), k, strategy)
    assert tuple(cert.u_set.indices()) == oracle_certificate(ar, base, k, strategy)


@st.composite
def validations(draw):
    entry = draw(st.sampled_from(ENTRIES))
    order = entry.group.order
    ar = Arithmetic(entry.group.table())
    base = draw(st.one_of(
        st.sets(st.integers(0, order - 1)),
        st.sets(st.integers(0, order - 1), max_size=3).map(lambda s: set(range(order)) - s),
    ))
    # at most 13 members, so the oracle walks at most 2^13 subsets
    drawn = draw(st.sets(st.integers(0, order - 1), max_size=6))
    shape = draw(st.sampled_from(["as drawn", "symmetric", "symmetric without identity"]))
    if shape == "as drawn":
        U = drawn
    else:
        U = drawn | {ar.inv[x] for x in drawn} | {ar.e}
        if shape == "symmetric without identity":
            U.discard(ar.e)
    k = draw(st.integers(1, len(U) + 1))
    return entry, ar, base, U, k


@examples(300)
@hypothesis.given(validations())
def test_validate_matches_the_oracle(case):
    entry, ar, base, U, k = case
    G = entry.group
    cert = LargenessCertificate(
        G, Subset.from_indices(G, base), k, Subset.from_indices(G, U)
    )
    assert cert.validate() == passes(ar, base, U, k)


def _members(bits):
    return {x for x in range(bits.bit_length()) if bits >> x & 1}


@pytest.mark.parametrize("k", [1, 2])
def test_klarge_exhaustive_is_maximal(s3, d8, z9, k):
    rng = random.Random(f"klarge-{k}")
    for G in (s3, d8, z9):
        ar = Arithmetic(G.table())
        for _ in range(4):
            base = _members(rng.getrandbits(G.order) or 1)
            cert = k_large_certificate(Subset.from_indices(G, base), k, strategy="exhaustive")
            assert cert.validate()
            assert tuple(cert.u_set.indices()) == oracle_certificate(ar, base, k, "exhaustive")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_klarge_greedy_matches_brute_force(s3, d8, z9, k):
    rng = random.Random(f"greedy-{k}")
    for G in (s3, d8, z9):
        ar = Arithmetic(G.table())
        for _ in range(6):
            base = _members(rng.getrandbits(G.order) | 1 << ar.e)
            cert = k_large_certificate(Subset.from_indices(G, base), k)
            assert tuple(cert.u_set.indices()) == oracle_certificate(ar, base, k, "greedy")
