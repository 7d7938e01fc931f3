import itertools
import json
import random
import re

import numpy as np
import oracles
import pytest

from finhaar.catalog import bundled_catalog, bundled_catalog_text
from finhaar.errors import (
    CapExceeded,
    GroupMismatch,
    InvalidPermutation,
    NoInverse,
    NotBijective,
    NotMultiplicative,
    OrderNotDividing3,
)
from finhaar.families import (
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.groups import (
    FiniteGroup,
    Subgroup,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
    generate_subgroup,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
)
from finhaar.lattice import all_subgroups, normal_closure, normal_core
from finhaar.measure import (
    GroupFunction,
    Subset,
    translate_intersection_measure,
    translate_product_mean,
)
from finhaar.towers import build_tower
from finhaar.wordsets import (
    commuting_certificate,
    engel_pair_certificate,
    inverted_set,
    splitting_set,
    torsion_set,
)

from conftest import (
    A5_GENS,
    S3_CYCLIC,
    S3_ELEMS,
    S3_TRANSPOSITIONS,
    greedy_generators,
    heis27_rtimes_c3,
)


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
    assert build_perm_group(4, [], cap=4).order == 1
    with pytest.raises(CapExceeded, match="degree 5 exceeds cap 4 with no generators"):
        build_perm_group(5, [], cap=4)


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
    # a generator of another length is no permutation, whatever its entries
    for g in [(1, 0), (1, 0, 2, 3), (5,), (1.5, 0)]:
        with pytest.raises(InvalidPermutation, match=r"is not a permutation of 0\.\.2"):
            build_perm_group(3, [g])


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


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric_group(4),
        lambda: dihedral_group(8),
        quaternion_group,
        heisenberg_group_3,
        lambda: symmetric_group(5),
        heis27_rtimes_c3,
    ],
    ids=["S4", "D16", "Q8", "Heis27", "S5", "Heis27:conj-x"],
)
def test_is_normal_and_normal_core_against_all_pairs(make):
    G = make()
    table = G.table()
    inv = oracles.inverses(table)
    subgroups = all_subgroups(G)
    normal = {H.members for H in subgroups if oracles.is_normal(table, inv, H.members)}
    for H in subgroups:
        # as built and rebuilt from its members alone (greedy generators)
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
    for i in (-1, 6):
        with pytest.raises(ValueError, match=f"GroupElement on S3: entry {i} out of range 0..5"):
            s3.element(i)


def test_elements_of_different_groups_do_not_multiply(s3, z6):
    # a second S3 is another group, though its table is the same
    for a, b in ((s3.element(1), z6.element(1)), (s3.element(1), symmetric_group(3).element(1))):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(GroupMismatch, match="^elements of different groups$"):
                x * y


def test_abelianness(z6, s3, s4, d8, q8, heis27):
    assert z6.is_abelian()
    assert not s3.is_abelian()
    outcomes = set()
    for G in (s4, d8, q8, heis27, bundled_catalog().get("F21").group):
        table = G.table()
        assert G.is_abelian() == oracles.is_abelian_on(table, G.elements())
        for H in all_subgroups(G):
            expected = oracles.is_abelian_on(table, H.members)
            # as built, then rebuilt from its members alone (greedy generators)
            assert H.is_abelian() == Subgroup(G, H.members).is_abelian() == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


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
        (symmetric_group(1), 1, []),
        (symmetric_group(2), 2, [(1, 0)]),
        (symmetric_group(3), 3, [(1, 0, 2), (1, 2, 0)]),
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
    assert [G.order for G, _, _ in cases] == [
        24, 60, 120, 720, 1, 2, 6, 1, 1, 24, 24, 1, 1, 24, 6, 24
    ]
    for G, degree, gens in cases:
        perms, table = oracles.perm_closure(degree, gens)
        assert G.backend == "permutation"
        assert [G.perm_of(i) for i in G.elements()] == perms
        assert G.table() == table
        assert G.identity == 0
        assert [G.inv(x) for x in G.elements()] == oracles.inverses(table)
        assert G.generators == greedy_generators(table)
    # both orders of the S4 generators index S4 differently
    assert cases[0][0].table() != cases[-3][0].table()


def _table_of(elements, product):
    """Cayley table of ``elements``, indexed in the order given, under
    ``product``, an arithmetic of the caller's own."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[product(x, y)] for y in elements] for x in elements]


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _matmul_mod3(p, q):
    return tuple(
        tuple(sum(p[i][k] * q[k][j] for k in range(3)) % 3 for j in range(3))
        for i in range(3)
    )


@pytest.mark.parametrize("n", range(1, 25))
def test_dihedral_tables_compose_affine_maps(n):
    # r^i s^j, at index j*n+i, is the map x -> (-1)^j x + i on Z_n, kept
    # as its coefficients so that it stays faithful for n = 1, 2
    maps = [((-1) ** j, i) for j in range(2) for i in range(n)]

    def compose(f, g):
        return f[0] * g[0], (f[0] * g[1] + f[1]) % n

    assert dihedral_group(n).table() == _table_of(maps, compose)


def test_quaternion_table_multiplies_hamilton_units():
    # index 4s+b is (-1)^s times the unit b of 1, i, j, k
    units = [tuple((-1) ** s * (k == b) for k in range(4)) for s in range(2) for b in range(4)]
    assert quaternion_group().table() == _table_of(units, _hamilton)


def test_heisenberg_table_multiplies_unitriangular_matrices():
    # index 9a+3b+c is the matrix [[1, a, c], [0, 1, b], [0, 0, 1]] over F_3
    matrices = [
        ((1, a, c), (0, 1, b), (0, 0, 1)) for a in range(3) for b in range(3) for c in range(3)
    ]
    assert heisenberg_group_3().table() == _table_of(matrices, _matmul_mod3)


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
        ([[0, 1], ["x", 3]], "entry 'x' out of range 0..1"),
        ([[0, 1], [1, 2.0]], "entry 2.0 out of range 0..1"),
    ],
)
def test_out_of_range_message_names_the_first_offending_entry(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_table_group(table, label="bad")


def test_non_integer_entries_are_rejected_not_truncated():
    z2 = cyclic_group(2)
    for build, message in [
        (lambda: build_table_group([[0, 1], [1, 0.7]], label="bad"), "bad: entry 0.7"),
        (lambda: build_table_group([[0, True], [1, 0]], label="bad"), "bad: entry True"),
        (lambda: automorphism_from_map(cyclic_group(3), [0, 2.9, 1]), "Z3/aut: entry 2.9"),
        (lambda: automorphism_from_map(cyclic_group(3), [0, "2", 1]), "Z3/aut: entry '2'"),
        (lambda: build_perm_group(2, [(1.5, 0)], label="bad"), "bad: entry 1.5"),
        (lambda: build_perm_group(2, [(False, True)], label="bad"), "bad: entry False"),
        (lambda: build_tower([z2, z2], [[0, 1.9]], name="t"), "t: map 0: entry 1.9"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_table_entries_become_ints():
    # numpy integers are integers; bool and integral floats are not
    table = np.array([[0, 1], [1, 0]], dtype=np.int64)
    G = build_table_group(table, label="Z2")
    assert G.table() == [[0, 1], [1, 0]]
    assert {type(v) for row in G.table() for v in row} == {int}
    aut = automorphism_from_map(G, np.arange(2, dtype=np.int64))
    perms = build_perm_group(2, [np.array([1, 0], dtype=np.int64)])
    tower = build_tower([G, G], [np.arange(2, dtype=np.int64)])
    assert {type(v) for v in aut.map + perms.perm_of(1) + tower.maps[0]} == {int}
    with pytest.raises(ValueError, match=re.escape("Z2: entry 0.0 out of range 0..1")):
        build_table_group([[0.0, True], [1, False]], label="Z2")


def _s3_subset():
    return torsion_set(symmetric_group(3), 2).subset


def _s3_function():
    return GroupFunction.indicator(_s3_subset())


def _s3_pair_set(kind):
    G = symmetric_group(3)
    return (inverted_set if kind == "inverted" else splitting_set)(G, identity_automorphism(G))


# (entry point named in the message, call on S3 with one element index,
# what the call keeps of the index, with the type of each stored index)
INDEX_ENTRIES = [
    ("GroupElement", lambda v: symmetric_group(3).element(v), lambda r: (r.idx, type(r.idx))),
    (
        "generate_subgroup",
        lambda v: generate_subgroup(symmetric_group(3), [v]),
        lambda r: (r.members, [type(g) for g in r.generators]),
    ),
    ("normal_closure", lambda v: normal_closure(symmetric_group(3), [v]), lambda r: r.members),
    (
        "inner_automorphism",
        lambda v: inner_automorphism(symmetric_group(3), v),
        lambda r: (r.map, r.name),
    ),
    (
        "Subset.from_indices",
        lambda v: Subset.from_indices(symmetric_group(3), [v]),
        lambda r: (r.bits, r.indices()),
    ),
    ("Subset.right_translate", lambda v: _s3_subset().right_translate(v), lambda r: r.bits),
    (
        "translate_intersection_measure",
        lambda v: translate_intersection_measure([_s3_subset()], [v]),
        lambda r: r,
    ),
    (
        "translate_product_mean",
        lambda v: translate_product_mean([_s3_function()], [v]),
        lambda r: r,
    ),
    (
        "commuting_certificate",
        lambda v: commuting_certificate(_s3_pair_set("inverted"), v, 0),
        lambda r: r,
    ),
    (
        "commuting_certificate",
        lambda v: commuting_certificate(_s3_pair_set("inverted"), 0, v),
        lambda r: r,
    ),
    (
        "engel_pair_certificate",
        lambda v: engel_pair_certificate(_s3_pair_set("splitting"), v, 2),
        lambda r: r,
    ),
    (
        "engel_pair_certificate",
        lambda v: engel_pair_certificate(_s3_pair_set("splitting"), 2, v),
        lambda r: r,
    ),
    (
        "Subgroup",
        lambda v: Subgroup(symmetric_group(3), [v] + [u for u in range(6) if u != v]),
        lambda r: r.members,
    ),
    (
        "Subgroup",
        lambda v: Subgroup(symmetric_group(3), range(6), generators=[v, 1, 2]),
        lambda r: (r.members, r.generators),
    ),
]


@pytest.mark.parametrize(
    "name, call, kept", INDEX_ENTRIES, ids=[f"{e[0]}-{i}" for i, e in enumerate(INDEX_ENTRIES)]
)
def test_every_entry_point_checks_element_indices_by_one_rule(name, call, kept):
    for bad in (-1, 6, True, 1.5, "1"):
        message = f"{name} on S3: entry {bad!r} out of range 0..5"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(bad)
    for good in range(6):
        assert kept(call(np.int64(good))) == kept(call(good))


def test_subset_bits_are_python_ints():
    G = cyclic_group(81)
    assert Subset.from_indices(G, [np.int64(70)]).indices() == [70]
    for bits in (True, np.int64(3), 3.0):
        with pytest.raises(ValueError, match="bitmask must be an int with bits in 0..80"):
            Subset(G, bits)


def test_subgroup_checks_members_and_generators():
    s3 = symmetric_group(3)
    message = "Subgroup on S3: generators [2] do not generate [0, 1, 2, 3, 4, 5]"
    with pytest.raises(ValueError, match=re.escape(message)):
        Subgroup(s3, range(6), generators=(2,))
    with pytest.raises(ValueError, match=re.escape("Subgroup on S3: entry -1 out of range 0..5")):
        Subgroup(s3, [0, -1])
    with pytest.raises(ValueError, match=re.escape("Subgroup on S3: repeated member in [0, 0]")):
        Subgroup(s3, [0, 0])
    assert not Subgroup(s3, range(6), generators=(1, 2)).is_abelian()


@pytest.mark.parametrize(
    "make, subgroups",
    [(lambda: symmetric_group(3), 6), (lambda: dihedral_group(4), 10), (quaternion_group, 6)],
    ids=["S3", "D8", "Q8"],
)
def test_subgroup_from_members_exactly_when_closed(make, subgroups):
    G = make()
    table = G.table()
    others = [x for x in G.elements() if x != G.identity]
    closed_sets = 0
    for r in range(len(others) + 1):
        for rest in itertools.combinations(others, r):
            subset = [G.identity, *rest]
            closed = all(table[a][b] in subset for a in subset for b in subset)
            if not closed:
                message = f"Subgroup on {G.label}: {sorted(subset)} is not a subgroup"
                with pytest.raises(ValueError, match=re.escape(message)):
                    Subgroup(G, subset)
                continue
            closed_sets += 1
            H = Subgroup(G, subset)
            assert H.members == tuple(sorted(subset))
            assert generate_subgroup(G, H.generators).members == H.members
    assert closed_sets == subgroups


def test_membership_answers_false_for_what_is_no_member():
    s3 = symmetric_group(3)
    for H in (Subset.full(s3), Subgroup(s3, range(6)), generate_subgroup(s3, [1, 2])):
        for v in (-1, 1.5, 6):
            assert v not in H
        assert 5 in H and np.int64(5) in H
    assert 1 not in Subset.from_indices(s3, [0, 2]) and 2 in Subset.from_indices(s3, [0, 2])


def _order_by_a_loop(mapping):
    ident, current, k = list(range(len(mapping))), list(mapping), 1
    while current != ident:
        current = [mapping[v] for v in current]
        k += 1
    return k


def _multiplier_maps():
    """x -> ux on Z_n with u = 5 mod 8: u generates the cyclic part of
    the units mod 2^k, so the map has order n/4."""
    for n in (64, 128, 256, 512):
        Z = cyclic_group(n)
        for u in (5, 13, n - 3):
            yield n // 4, automorphism_from_map(Z, [u * x % n for x in range(n)], name=f"mul{u}")


def test_automorphism_order_and_powers_against_a_loop():
    catalog = bundled_catalog()
    auts = [aut for label in catalog.labels() for aut in catalog.get(label).automorphisms.values()]
    multipliers = list(_multiplier_maps())
    for expected, aut in multipliers:
        assert aut.order == expected
    S5 = symmetric_group(5)
    inner = [inner_automorphism(S5, g) for g in S5.elements()]
    assert {aut.order for aut in inner} == {1, 2, 3, 4, 5, 6}
    for aut in auts + [aut for _, aut in multipliers] + inner:
        assert aut.order == _order_by_a_loop(aut.map)
        assert aut.map_power(aut.order) == tuple(aut.group.elements())
    z512_mul5 = multipliers[-3][1]
    assert (z512_mul5.group.order, z512_mul5.name) == (512, "mul5")
    for aut in auts + [z512_mul5]:
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
