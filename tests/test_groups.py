import itertools

import pytest

from finhaar.catalog import bundled_catalog
from finhaar.errors import (
    CapExceeded,
    InvalidPermutation,
    NoInverse,
    NotBijective,
    NotMultiplicative,
    OrderNotDividing3,
)
from finhaar.groups import (
    FiniteGroup,
    Subgroup,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    heisenberg_group_3,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
    normal_core,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.lattice import all_subgroups

from conftest import A5_GENS, S3_CYCLIC, S3_ELEMS, S3_TRANSPOSITIONS


def test_trivial_table_group():
    G = build_table_group([[0]], label="triv")
    assert G.order == 1
    assert G.identity == 0
    assert G.inv(0) == 0


def test_z2_table_group():
    G = build_table_group([[0, 1], [1, 0]], label="Z2")
    assert G.order == 2
    assert G.identity == 0
    assert G.mul(1, 1) == 0


def test_min_table_rejected():
    # mul(x, y) = min(x, y): 2 acts as identity but 0 has no inverse.
    table = [[min(i, j) for j in range(3)] for i in range(3)]
    with pytest.raises(NoInverse):
        build_table_group(table)


def test_non_square_table_rejected():
    with pytest.raises(ValueError):
        build_table_group([[0, 1], [1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        build_table_group([[0, 1], [1, 2]])


def test_perm_group_empty_generators():
    G = build_perm_group(3, [])
    assert G.order == 1


def test_s3_breadth_first_indexing(s3):
    assert s3.order == 6
    assert [s3.perm_of(i) for i in range(6)] == S3_ELEMS
    assert s3.identity == 0


def test_perm_group_cap():
    with pytest.raises(CapExceeded):
        build_perm_group(4, [(1, 2, 3, 0)], cap=3)


def test_invalid_generator():
    with pytest.raises(InvalidPermutation):
        build_perm_group(3, [(0, 0, 1)])


def test_power(z6, s3):
    assert z6.power(2, 3) == 0
    assert z6.power(2, 0) == 0
    assert s3.power(2, -1) == 5  # (0 1 2)^-1 = (0 2 1)
    assert all(s3.power(g, 0) == s3.identity for g in s3.elements())
    # square-and-multiply against repeated multiplication
    for g in s3.elements():
        acc = s3.identity
        for n in range(1, 8):
            acc = s3.mul(acc, g)
            assert s3.power(g, n) == acc
            assert s3.power(g, -n) == s3.inv(acc)


def test_generate_subgroup_empty(s3):
    H = generate_subgroup(s3, [])
    assert H.members == (0,)


def test_generate_subgroup_full(s3):
    assert generate_subgroup(s3, [1, 2]).members == tuple(range(6))


def test_generate_subgroup_cyclic(z6):
    assert generate_subgroup(z6, [2]).members == (0, 2, 4)


def test_generate_subgroup_idempotent(s3, z6, d8):
    for G in (s3, z6, d8):
        for g in G.elements():
            H = generate_subgroup(G, [g])
            assert generate_subgroup(G, list(H.members)).members == H.members


def test_lagrange(s3, s4, d8, q8, heis27):
    for G in (s3, s4, d8, q8, heis27):
        for g in G.elements():
            H = generate_subgroup(G, [g])
            assert G.order % H.size == 0


def test_normal_core_of_normal_subgroup(s3):
    C = generate_subgroup(s3, [2])
    assert C.members == S3_CYCLIC
    assert normal_core(s3, C).members == C.members


def test_normal_core_transposition(s3):
    H = generate_subgroup(s3, [1])
    assert normal_core(s3, H).members == (0,)


def test_normal_core_sylow2_is_klein(s4):
    # Sylow 2-subgroup of S4 generated by a 4-cycle and a flip.
    four_cycle = s4.index_of_perm((1, 2, 3, 0))
    flip = s4.index_of_perm((2, 1, 0, 3))
    H = generate_subgroup(s4, [four_cycle, flip])
    assert H.size == 8
    core = normal_core(s4, H)
    klein = {
        s4.index_of_perm(p)
        for p in [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    }
    assert set(core.members) == klein
    # independent oracle: elements of H whose whole conjugacy orbit stays in H
    oracle = {
        x
        for x in H.members
        if all(s4.conjugate(g, x) in H for g in s4.elements())
    }
    assert set(core.members) == oracle


def test_normal_core_is_normal_and_idempotent(s3, s4, d8):
    for G in (s3, s4, d8):
        for g in G.elements():
            H = generate_subgroup(G, [g])
            core = normal_core(G, H)
            assert core.is_normal()
            assert normal_core(G, core).members == core.members


def _normal_by_all_pairs(G, members):
    """Oracle: g * h * g^-1 lies in the set for every g in G and every member h."""
    ms = set(members)
    return all(G.mul(G.mul(g, h), G.inv(g)) in ms for g in G.elements() for h in ms)


def _heis27_rtimes_c3():
    heis = bundled_catalog().get("Heis27")
    return semidirect_c3(heis.group, heis.automorphisms["conj-x"])


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric_group(4),
        lambda: dihedral_group(8),
        quaternion_group,
        heisenberg_group_3,
        lambda: symmetric_group(5),
        _heis27_rtimes_c3,
    ],
    ids=["S4", "D16", "Q8", "Heis27", "S5", "Heis27:conj-x"],
)
def test_is_normal_and_normal_core_against_all_pairs(make):
    G = make()
    subgroups = all_subgroups(G)
    normal = {H.members for H in subgroups if _normal_by_all_pairs(G, H.members)}
    for H in subgroups:
        # as built (with generators) and re-wrapped without generators
        assert H.is_normal() == (H.members in normal)
        assert Subgroup(G, H.members).is_normal() == (H.members in normal)
        core = normal_core(G, H)
        inside = [K for K in subgroups if set(K.members) <= set(H.members)]
        largest = max((K for K in inside if K.members in normal), key=lambda K: K.size)
        assert core.members == largest.members
        assert core.is_normal()
        assert generate_subgroup(G, core.generators).members == core.members


def test_inverse_antihomomorphism(s3, d8, q8):
    for G in (s3, d8, q8):
        for x in G.elements():
            for y in G.elements():
                assert G.inv(G.mul(x, y)) == G.mul(G.inv(y), G.inv(x))


def test_identity_automorphism(s3):
    aut = identity_automorphism(s3)
    assert aut.order == 1


def test_z7_doubling_has_order_3(z7):
    aut = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    assert aut.order == 3


def test_non_multiplicative_rejected(s3):
    # swapping the identity with a transposition cannot be multiplicative
    with pytest.raises(NotMultiplicative):
        automorphism_from_map(s3, [1, 0, 2, 3, 4, 5])


def test_non_bijective_rejected(s3):
    with pytest.raises(NotBijective):
        automorphism_from_map(s3, [0, 0, 2, 3, 4, 5])


def test_inversion_automorphism_abelian_only(z6, s3):
    aut = inversion_automorphism(z6)
    assert aut.order == 2
    with pytest.raises(NotMultiplicative):
        inversion_automorphism(s3)


def test_inner_automorphism_order(s3):
    assert inner_automorphism(s3, 1).order == 2
    assert inner_automorphism(s3, 2).order == 3


def test_semidirect_identity_is_direct_product(z6):
    ext = semidirect_c3(z6, identity_automorphism(z6))
    assert ext.order == 18
    for g, i in itertools.product(range(6), range(3)):
        for h, j in itertools.product(range(6), range(3)):
            lhs = ext.mul(ext.pair_index(g, i), ext.pair_index(h, j))
            assert lhs == ext.pair_index(z6.mul(g, h), (i + j) % 3)


def test_semidirect_frobenius21(z7):
    aut = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    F = semidirect_c3(z7, aut)
    assert F.order == 21
    a = F.pair_index(1, 1)
    b = F.pair_index(1, 0)
    assert F.mul(a, b) != F.mul(b, a)
    # every (a, 1) cubes to the identity: 4a + 2a + a = 7a = 0 mod 7
    for g in range(7):
        assert F.power(F.pair_index(g, 1), 3) == F.identity


def test_semidirect_embedding_is_monomorphism(z7):
    aut = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)])
    F = semidirect_c3(z7, aut)
    for g in range(7):
        for h in range(7):
            assert F.mul(F.pair_index(g, 0), F.pair_index(h, 0)) == F.pair_index(
                z7.mul(g, h), 0
            )


def test_semidirect_rejects_order_2_automorphism():
    z4 = cyclic_group(4)
    with pytest.raises(OrderNotDividing3):
        semidirect_c3(z4, inversion_automorphism(z4))


def test_element_wrapper(s3):
    a = s3.element(1)
    b = s3.element(2)
    assert (a * b).idx == s3.mul(1, 2)
    assert (a**-1).idx == s3.inv(1)
    assert a.inverse() == a**-1
    assert b.order() == 3


def test_abelianness(z6, s3):
    assert z6.is_abelian()
    assert not s3.is_abelian()


def test_table_group_associativity_witness():
    # a magma with identity and inverses that is not associative:
    # subtraction mod 3 (0 is a right identity only; use a crafted table)
    table = [
        [0, 1, 2],
        [1, 2, 0],
        [2, 1, 0],
    ]
    # row/col 0 behave as identity; 1 and 2 invert each other or themselves
    from finhaar.errors import NotAssociative, NoIdentity, NoInverse

    with pytest.raises((NotAssociative, NoIdentity, NoInverse)):
        build_table_group(table)


def test_s3_transpositions_have_order_2(s3):
    for t in S3_TRANSPOSITIONS:
        assert s3.element_order(t) == 2



def test_permutation_tables_compose_the_permutations():
    # the table of a permutation group is not checked by Light's test, so
    # rebuild it here from the permutations, cell by cell
    catalog = bundled_catalog()
    groups = [symmetric_group(4), build_perm_group(5, A5_GENS, label="A5"), symmetric_group(5)]
    groups += [
        catalog.get(label).group
        for label in catalog.labels()
        if catalog.get(label).group.backend == "permutation"
    ]
    assert [(G.label, G.order) for G in groups] == [
        ("S4", 24), ("A5", 60), ("S5", 120), ("S3", 6), ("S4", 24)
    ]
    for G in groups:
        perms = [G.perm_of(i) for i in G.elements()]
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                # mul(i, j) applies j first, then i
                assert G.mul(i, j) == G.index_of_perm([p[x] for x in q])


def test_light_test_runs_on_tables_only(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.label}: associativity checked")

    monkeypatch.setattr(FiniteGroup, "_check_associativity", refuse)
    assert symmetric_group(5).order == 120
    with pytest.raises(AssertionError, match="Z4: associativity checked"):
        cyclic_group(4)
