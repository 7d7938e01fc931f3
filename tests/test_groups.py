import itertools
import json
import random
import re

import pytest

from finhaar.catalog import bundled_catalog, bundled_catalog_text
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
    for G in (cyclic_group(1), z6):
        ext = semidirect_c3(G, identity_automorphism(G))
        assert ext.order == 3 * G.order
        for g, i in itertools.product(G.elements(), range(3)):
            for h, j in itertools.product(G.elements(), range(3)):
                lhs = ext.mul(ext.pair_index(g, i), ext.pair_index(h, j))
                assert lhs == ext.pair_index(G.mul(g, h), (i + j) % 3)


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



def _composed_perm_group(degree, gens):
    """Reference construction, by composition alone: the breadth-first
    closure, then every pair of permutations composed and looked up; the
    least two-sided inverses; and greedy generators, each the least
    index the closure so far misses."""
    identity = tuple(range(degree))
    perms, position = [identity], {identity: 0}
    for current in perms:
        for g in gens:
            new = tuple(current[g[x]] for x in range(degree))
            if new not in position:
                position[new] = len(perms)
                perms.append(new)
    # mul(i, j) applies j first, then i
    table = [[position[tuple([p[x] for x in q])] for q in perms] for p in perms]
    inverses = [
        next(y for y, xy in enumerate(row) if xy == 0 and table[y][x] == 0)
        for x, row in enumerate(table)
    ]
    generators, closure = [], [0]
    for x in range(len(perms)):
        if x not in closure:
            generators.append(x)
            closure = [0]
            for y in closure:
                for g in generators:
                    if table[y][g] not in closure:
                        closure.append(table[y][g])
    return perms, table, inverses, generators


S4_SWAP, S4_CYCLE = (1, 0, 2, 3), (1, 2, 3, 0)


def test_permutation_tables_compose_the_permutations():
    # the table of a permutation group is not checked by Light's test, so
    # rebuild it here the old way and compare element by element
    catalog_specs = [
        spec for spec in json.loads(bundled_catalog_text())["groups"] if spec["kind"] == "perm"
    ]
    assert [spec["label"] for spec in catalog_specs] == ["S3", "S4"]
    s6_gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    cases = [
        (symmetric_group(4), 4, [S4_SWAP, S4_CYCLE]),
        (build_perm_group(5, A5_GENS, label="A5"), 5, A5_GENS),
        (symmetric_group(5), 5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
        (symmetric_group(6), 6, s6_gens),
        (build_perm_group(4, []), 4, []),
        (build_perm_group(4, [(0, 1, 2, 3)]), 4, [(0, 1, 2, 3)]),
        (build_perm_group(4, [S4_SWAP, S4_SWAP, S4_CYCLE, S4_SWAP]), 4,
         [S4_SWAP, S4_SWAP, S4_CYCLE, S4_SWAP]),
        # (0 1)(0 1 2 3) is a product of the two before it
        (build_perm_group(4, [S4_SWAP, S4_CYCLE, (2, 1, 3, 0)]), 4,
         [S4_SWAP, S4_CYCLE, (2, 1, 3, 0)]),
        (build_perm_group(1, [(0,)]), 1, [(0,)]),
        (build_perm_group(1, []), 1, []),
        (build_perm_group(4, [S4_CYCLE, S4_SWAP]), 4, [S4_CYCLE, S4_SWAP]),
    ]
    cases += [
        (bundled_catalog().get(spec["label"]).group, spec["degree"],
         [tuple(g) for g in spec["generators"]])
        for spec in catalog_specs
    ]
    assert [G.order for G, _, _ in cases] == [24, 60, 120, 720, 1, 1, 24, 24, 1, 1, 24, 6, 24]
    for G, degree, gens in cases:
        perms, table, inverses, generators = _composed_perm_group(degree, gens)
        assert G.backend == "permutation"
        assert [G.perm_of(i) for i in G.elements()] == perms
        assert G.table() == table
        assert G.identity == 0
        assert [G.inv(x) for x in G.elements()] == inverses
        assert list(G.generators) == generators
    # both orders of the S4 generators index S4 differently
    assert cases[0][0].table() != cases[-3][0].table()


def _least_two_sided_inverses(t):
    """Least y with x*y = 0 = y*x for each x, or the first x with none."""
    inverses = []
    for x, row in enumerate(t):
        y = next((y for y in range(len(t)) if row[y] == 0 and t[y][x] == 0), None)
        if y is None:
            return x
        inverses.append(y)
    return inverses


def test_inverses_when_the_first_right_inverse_is_not_a_left_one(monkeypatch):
    # 0 is a two-sided identity throughout; these magmas are not groups, so
    # Light's test is switched off to see the inverses that were found
    monkeypatch.setattr(FiniteGroup, "_check_associativity", lambda self: None)
    # 1*2 = 0 but 2*1 = 3; 1*3 = 0 = 3*1
    later = [[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 1, 0], [3, 0, 0, 1]]
    assert _least_two_sided_inverses(later) == [0, 3, 3, 1]
    assert build_table_group(later)._inv == [0, 3, 3, 1]
    # 1's only right inverse, 2, is not a left one: 2*1 = 3
    none = [[0, 1, 2, 3], [1, 2, 0, 1], [2, 3, 1, 1], [3, 1, 2, 0]]
    assert _least_two_sided_inverses(none) == 1
    with pytest.raises(NoInverse, match=r"element 1 has no inverse"):
        build_table_group(none)
    rng = random.Random(8)
    outcomes = set()
    for _ in range(400):
        n = rng.randrange(2, 6)
        t = [list(range(n))] + [[x] + [rng.randrange(n) for _ in range(n - 1)] for x in range(1, n)]
        expected = _least_two_sided_inverses(t)
        if isinstance(expected, int):
            with pytest.raises(NoInverse, match=rf"element {expected} has no inverse$"):
                build_table_group(t)
        else:
            assert build_table_group(t)._inv == expected
        outcomes.add(type(expected))
    assert outcomes == {int, list}


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1, 2], [1, -1, 7], [2, 0, 1]], "entry -1 out of range 0..2"),
        ([[0, 1, 2], [1, 7, -1], [2, 0, 9]], "entry 7 out of range 0..2"),
        ([[0, 1], [3, "x"]], "entry 3 out of range 0..1"),
        ([[0, 1], ["x", 3]], "invalid literal for int"),
        ([[0, 1], [1, 2.0]], "entry 2.0 out of range 0..1"),
    ],
)
def test_out_of_range_message_names_the_first_offending_entry(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_table_group(table, label="bad")


def test_table_entries_become_ints():
    G = build_table_group([[0.0, True], [1, False]], label="Z2")
    assert G.table() == [[0, 1], [1, 0]]
    assert {type(v) for row in G.table() for v in row} == {int}


def _order_by_a_loop(mapping):
    ident, current, k = list(range(len(mapping))), list(mapping), 1
    while current != ident:
        current = [mapping[v] for v in current]
        k += 1
    return k


def test_automorphism_order_and_powers_against_a_loop():
    catalog = bundled_catalog()
    auts = [aut for label in catalog.labels() for aut in catalog.get(label).automorphisms.values()]
    z512 = cyclic_group(512)
    auts.append(automorphism_from_map(z512, [(5 * x) % 512 for x in range(512)], name="mul"))
    assert auts[-1].order == 128
    for aut in auts:
        assert aut.order == _order_by_a_loop(aut.map)
        power = list(range(aut.group.order))
        for k in range(aut.order + 2):
            assert list(aut.map_power(k)) == power
            power = [aut.map[v] for v in power]


def test_light_test_runs_on_tables_only(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{self.label}: associativity checked")

    monkeypatch.setattr(FiniteGroup, "_check_associativity", refuse)
    assert symmetric_group(5).order == 120
    with pytest.raises(AssertionError, match="Z4: associativity checked"):
        cyclic_group(4)
