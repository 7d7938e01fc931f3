"""Oracles for subgroup closure and lattice enumeration.

Every expected value here comes from outside the code under test: closed
forms for lattice sizes, and sympy plus ``oracles.perm_closure`` over raw
permutation tuples for generated subgroups.
"""

import math
import random

import oracles
import pytest

from finhaar import lattice
from finhaar.catalog import bundled_catalog
from finhaar.engel import is_2engel
from finhaar.groups import (
    Subgroup,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.lattice import all_subgroups, maximal_subgroup_satisfying

from conftest import heis27_rtimes_c3


def _elementary_abelian_2(rank):
    n = 1 << rank
    return build_table_group([[i ^ j for j in range(n)] for i in range(n)], f"2^{rank}")


def _f21():
    z7 = cyclic_group(7)
    double = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    return semidirect_c3(z7, double, label="F21")


closed_form = oracles.subgroup_count_closed_form

LATTICE_SIZES = [
    (lambda: cyclic_group(6), closed_form("cyclic", 6)),
    (lambda: cyclic_group(12), closed_form("cyclic", 12)),
    (lambda: cyclic_group(27), closed_form("cyclic", 27)),
    (lambda: dihedral_group(4), closed_form("dihedral", 4)),
    (lambda: dihedral_group(8), closed_form("dihedral", 8)),
    (quaternion_group, closed_form("Q8", 8)),
    # S1 to S5 have 1, 2, 6, 30 and 156 subgroups (OEIS A005432)
    (lambda: symmetric_group(1), 1),
    (lambda: symmetric_group(2), 2),
    (lambda: symmetric_group(3), 6),
    (lambda: symmetric_group(4), closed_form("S4", 24)),
    (lambda: symmetric_group(5), 156),
    (heisenberg_group_3, closed_form("heisenberg", 3)),
    (_f21, closed_form("F21", 21)),
    # (Z2)^r: sum of Gaussian binomials; needs r generators
    (lambda: _elementary_abelian_2(3), 1 + 7 + 7 + 1),
    (lambda: _elementary_abelian_2(4), 1 + 15 + 35 + 15 + 1),
]


@pytest.mark.parametrize(
    "make, expected",
    LATTICE_SIZES,
    ids=["Z6", "Z12", "Z27", "D8", "D16", "Q8", "S1", "S2", "S3", "S4", "S5"]
    + ["Heis27", "F21", "2^3", "2^4"],
)
def test_lattice_size_matches_closed_form(make, expected):
    G = make()
    subs = all_subgroups(G)
    assert len(subs) == expected
    assert len({H.members for H in subs}) == expected


@pytest.mark.parametrize("degree", [5, 6])
def test_generate_subgroup_against_sympy_and_brute_force(degree):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = symmetric_group(degree)
    rng = random.Random(degree)
    for _ in range(12):
        gens = [rng.randrange(G.order) for _ in range(rng.randint(1, 3))]
        H = generate_subgroup(G, gens)
        perms = [G.perm_of(g) for g in gens]
        reference = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p)) for p in perms]
        )
        assert H.size == reference.order()
        members = {G.index_of_perm(p) for p in oracles.perm_closure(degree, perms)[0]}
        assert set(H.members) == members


EXTENSION_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "A5": lambda: build_perm_group(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], label="A5"),
    "D48": lambda: dihedral_group(24),
    "Heis27:conj-x": heis27_rtimes_c3,
    "S5": lambda: symmetric_group(5),
}


# the lattice-ladder groups of the benchmark: orders 8 to 81
LADDER_GROUPS = {
    "Q8": quaternion_group,
    "D8": lambda: dihedral_group(4, label="D8"),
    "D16": lambda: dihedral_group(8),
    "S4": lambda: symmetric_group(4),
    "Heis27": heisenberg_group_3,
    "F21": _f21,
    "D32": lambda: dihedral_group(16),
    "Z64": lambda: cyclic_group(64),
    "D48": lambda: dihedral_group(24),
    "A5": EXTENSION_GROUPS["A5"],
    "Heis27:conj-x": heis27_rtimes_c3,
}


def _plain_cyclic_extension(G):
    """Cyclic extension by every element outside each subgroup, no skip."""
    known = {(G.identity,): Subgroup(G, [G.identity])}
    frontier = []
    for g in G.elements():
        sub = generate_subgroup(G, [g])
        if sub.members not in known:
            known[sub.members] = sub
            frontier.append(sub)
    while frontier:
        next_frontier = []
        for sub in frontier:
            for g in G.elements():
                if g in sub:
                    continue
                bigger = generate_subgroup(G, sub.generators + (g,))
                if bigger.members not in known:
                    known[bigger.members] = bigger
                    next_frontier.append(bigger)
        frontier = next_frontier
    return sorted(known.values(), key=lambda s: (s.size, s.members))


def _double_coset(G, H, g):
    """HgH, built as {a * g * b}."""
    return {G.mul(G.mul(a, g), b) for a in H.members for b in H.members}


def _extended_elements(G, H):
    """The g the lattice extends H by: the least element of each double
    coset HgH outside H whose double coset is not that of a power g0^k of
    an earlier such g0 with k prime to the order of g0, since then
    <H, g> = <H, g0>."""
    done, extended = set(H.members), []
    for g in G.elements():
        if g in done:
            continue
        extended.append(g)
        order = next(n for n in range(1, G.order + 1) if G.power(g, n) == G.identity)
        for k in range(1, order):
            if math.gcd(k, order) == 1:
                done |= _double_coset(G, H, G.power(g, k))
    return extended


@pytest.mark.parametrize("label", sorted(EXTENSION_GROUPS | LADDER_GROUPS))
def test_double_coset_skip_keeps_the_lattice(label):
    make = EXTENSION_GROUPS.get(label) or LADDER_GROUPS[label]
    expected = [(H.members, H.generators) for H in _plain_cyclic_extension(make())]
    G = make()
    assert [(H.members, H.generators) for H in all_subgroups(G)] == expected


@pytest.mark.parametrize("label", ["S4", "A5", "D48", "Heis27:conj-x"])
def test_one_closure_per_double_coset(monkeypatch, label):
    calls = []
    real = lattice._extend
    monkeypatch.setattr(lattice, "_extend", lambda H, g: calls.append((H.members, g)) or real(H, g))
    G = EXTENSION_GROUPS[label]()
    subs = all_subgroups(G)
    # each proper subgroup, the trivial one included, is extended once by
    # each element _extended_elements names, in ascending order; from the
    # trivial subgroup that is one cyclic closure per cyclic subgroup
    # other than {e}
    expected = [(H.members, g) for H in subs if H.size < G.order for g in _extended_elements(G, H)]
    assert sorted(calls) == sorted(expected)
    cyclic = {frozenset(G.power(g, k) for k in range(G.order)) for g in G.elements()}
    assert sum(members == (G.identity,) for members, _ in calls) == len(cyclic) - 1


PREDICATES = {
    "normal": lambda H: H.is_normal(),
    "abelian": lambda H: H.is_abelian(),
    "normal-abelian": lambda H: H.is_normal() and H.is_abelian(),
    "normal-2engel": lambda H: H.is_normal() and is_2engel(H).holds,
    "even-order": lambda H: H.size % 2 == 0,
}


def _rank(H):
    return (-H.size, H.members)


CATALOG_LABELS = bundled_catalog().labels()


@pytest.mark.parametrize(
    "make",
    [lambda label=label: bundled_catalog().get(label).group for label in CATALOG_LABELS]
    + list(LADDER_GROUPS.values()),
    ids=[f"catalog-{label}" for label in CATALOG_LABELS] + list(LADDER_GROUPS),
)
def test_largest_first_search_stops_at_the_least_ranked_hit(make):
    G = make()
    for name, pred in PREDICATES.items():
        expected = min((H for H in all_subgroups(G) if pred(H)), key=_rank, default=None)
        called = []
        found = maximal_subgroup_satisfying(G, lambda H: called.append(H) or pred(H))
        assert found == expected, name
        if expected is None:
            assert len(called) == len(all_subgroups(G)), name
        else:
            # never called past the answer, and called once on each before it
            assert all(_rank(H) <= _rank(expected) for H in called), name
            assert len(called) == sum(_rank(H) <= _rank(expected) for H in all_subgroups(G))


@pytest.mark.parametrize(
    "make",
    [lambda label=label: bundled_catalog().get(label).group for label in CATALOG_LABELS]
    + [EXTENSION_GROUPS["S5"]],
    ids=[f"catalog-{label}" for label in CATALOG_LABELS] + ["S5"],
)
def test_normal_subgroups_match_conjugation_by_every_element(make):
    G = make()
    table = G.table()
    inv = oracles.inverses(table)
    expected = [H.members for H in all_subgroups(G) if oracles.is_normal(table, inv, H.members)]
    assert [H.members for H in lattice.normal_subgroups(G)] == expected


def test_normal_subgroup_counts_of_s4_and_s5():
    # S4: 1, the Klein four-group, A4, S4; S5: 1, A5, S5
    assert [H.size for H in lattice.normal_subgroups(symmetric_group(4))] == [1, 4, 12, 24]
    assert [H.size for H in lattice.normal_subgroups(symmetric_group(5))] == [1, 60, 120]
