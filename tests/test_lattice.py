"""Oracles for subgroup closure and lattice enumeration.

Every expected value here comes from outside the code under test: closed
forms for lattice sizes, and sympy plus a closure over raw permutation
tuples for generated subgroups.
"""

import random

import pytest

from finhaar.groups import (
    automorphism_from_map,
    build_table_group,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.lattice import all_subgroups


def _tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _elementary_abelian_2(rank):
    n = 1 << rank
    return build_table_group([[i ^ j for j in range(n)] for i in range(n)], f"2^{rank}")


def _f21():
    z7 = cyclic_group(7)
    double = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    return semidirect_c3(z7, double, label="F21")


LATTICE_SIZES = [
    # cyclic Z_n: one subgroup per divisor of n
    (lambda: cyclic_group(6), _tau(6)),
    (lambda: cyclic_group(12), _tau(12)),
    (lambda: cyclic_group(27), _tau(27)),
    # dihedral of order 2n: tau(n) rotation subgroups plus sigma(n) others
    (lambda: dihedral_group(4), _tau(4) + _sigma(4)),
    (lambda: dihedral_group(8), _tau(8) + _sigma(8)),
    (quaternion_group, 6),
    (lambda: symmetric_group(4), 30),
    (heisenberg_group_3, 19),
    (_f21, 10),
    # (Z2)^r: sum of Gaussian binomials; needs r generators
    (lambda: _elementary_abelian_2(3), 1 + 7 + 7 + 1),
    (lambda: _elementary_abelian_2(4), 1 + 15 + 35 + 15 + 1),
]


@pytest.mark.parametrize(
    "make, expected",
    LATTICE_SIZES,
    ids=["Z6", "Z12", "Z27", "D8", "D16", "Q8", "S4", "Heis27", "F21", "2^3", "2^4"],
)
def test_lattice_size_matches_closed_form(make, expected):
    G = make()
    subs = all_subgroups(G)
    assert len(subs) == expected
    assert len({H.members for H in subs}) == expected


def _perm_closure(degree, gens):
    """Subgroup generated by permutation tuples, by products to a fixed point."""
    group = {tuple(range(degree))}
    while True:
        bigger = group | {tuple(p[g[x]] for x in range(degree)) for p in group for g in gens}
        if bigger == group:
            return group
        group = bigger


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
        members = {G.index_of_perm(p) for p in _perm_closure(degree, perms)}
        assert set(H.members) == members
