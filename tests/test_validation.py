"""Exact validation: Light's associativity test and generator-only
homomorphism checks, against brute-force loops written here.

The oracles below test every triple or every pair, independently of
the generating sets the library checks on.
"""

import itertools
import math
import random

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.errors import NotAssociative, ValidationError
from finhaar.groups import (
    automorphism_from_map,
    build_table_group,
    cyclic_group,
    dihedral_group,
    inner_automorphism,
    quaternion_group,
    symmetric_group,
)
from finhaar.towers import build_tower


def _elementary_abelian_8():
    return build_table_group([[i ^ j for j in range(8)] for i in range(8)], "Z2^3")


SMALL_GROUPS = [
    cyclic_group(1),
    cyclic_group(2),
    cyclic_group(3),
    cyclic_group(4),
    dihedral_group(2),
    cyclic_group(5),
    cyclic_group(6),
    symmetric_group(3),
    cyclic_group(7),
    cyclic_group(8),
    dihedral_group(4),
    quaternion_group(),
    _elementary_abelian_8(),
]
IDS = [G.label for G in SMALL_GROUPS]


def _accepts(build, *args):
    try:
        build(*args)
    except ValidationError:
        return False
    return True


def _is_group_table(t):
    n = len(t)
    identities = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not identities:
        return False
    e = identities[0]
    if not all(any(t[x][y] == e == t[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(
        t[t[x][y]][z] == t[x][t[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def _is_homomorphism(source, target, phi):
    """Whether phi maps the Cayley table ``source`` into ``target``."""
    n = len(source)
    return all(phi[source[x][y]] == target[phi[x]][phi[y]] for x in range(n) for y in range(n))


def _intercalate_swaps(t):
    """Every table obtained by swapping one 2x2 sub-square a b / b a."""
    n = len(t)
    for r1, r2 in itertools.combinations(range(n), 2):
        for c1, c2 in itertools.combinations(range(n), 2):
            if t[r1][c1] == t[r2][c2] and t[r1][c2] == t[r2][c1]:
                u = [row[:] for row in t]
                u[r1][c1], u[r1][c2] = t[r1][c2], t[r1][c1]
                u[r2][c1], u[r2][c2] = t[r2][c2], t[r2][c1]
                yield u


def _cell_changes(t):
    n = len(t)
    for r, c in itertools.product(range(n), repeat=2):
        for v in range(n):
            if v != t[r][c]:
                u = [row[:] for row in t]
                u[r][c] = v
                yield u


def test_z512_intercalate_is_not_associative():
    # a Latin square with identity 0 and inverses that sampled triples miss
    n, a, c = 512, 1, 1
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    for r in (a, a + n // 2):
        t[r][c], t[r][c + n // 2] = t[r][c + n // 2], t[r][c]
    with pytest.raises(NotAssociative):
        build_table_group(t, "Z512-swapped")


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=IDS)
def test_table_validation_matches_all_triples(G):
    t = G.table()
    tables = [t] + list(_intercalate_swaps(t)) + list(_cell_changes(t))
    verdicts = [(_accepts(build_table_group, u), _is_group_table(u)) for u in tables]
    assert all(ours == oracle for ours, oracle in verdicts)
    assert verdicts[0] == (True, True)


def test_perturbations_reach_lights_test():
    # some perturbed tables keep an identity and inverses and fail only
    # associativity; others are groups again
    outcomes = set()
    for G in SMALL_GROUPS:
        t = G.table()
        for u in itertools.chain(_intercalate_swaps(t), _cell_changes(t)):
            try:
                build_table_group(u)
                outcomes.add("group")
            except ValidationError as exc:
                outcomes.add(type(exc).__name__)
    assert {"group", "NotAssociative"} <= outcomes


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=IDS)
def test_automorphism_validation_matches_all_pairs(G):
    e, rest = G.identity, [x for x in G.elements() if x != G.identity]
    if G.order <= 6:
        images = list(itertools.permutations(rest))
    else:
        rng = random.Random(G.order)
        images = [rng.sample(rest, len(rest)) for _ in range(200)]
    maps = []
    for image in images:
        phi = [None] * G.order
        phi[e] = e
        for x, y in zip(rest, image):
            phi[x] = y
        maps.append(phi)
    maps += [list(inner_automorphism(G, g).map) for g in G.elements()]
    table = G.table()
    for phi in maps:
        assert _accepts(automorphism_from_map, G, phi) == _is_homomorphism(table, table, phi)


TOWER_PAIRS = [
    (cyclic_group(1), cyclic_group(6)),
    (cyclic_group(2), cyclic_group(4)),
    (cyclic_group(2), dihedral_group(2)),
    (cyclic_group(2), symmetric_group(3)),
    (cyclic_group(3), cyclic_group(6)),
    (cyclic_group(2), dihedral_group(4)),
    (dihedral_group(2), quaternion_group()),
    (cyclic_group(4), cyclic_group(8)),
]


@pytest.mark.parametrize(
    "coarse, fine", TOWER_PAIRS, ids=[f"{c.label}<-{f.label}" for c, f in TOWER_PAIRS]
)
def test_tower_validation_matches_all_pairs(coarse, fine):
    exhaustive = coarse.order ** fine.order <= 1000
    if exhaustive:
        maps = list(itertools.product(range(coarse.order), repeat=fine.order))
    else:
        rng = random.Random(fine.order)
        maps = [[rng.randrange(coarse.order) for _ in fine.elements()] for _ in range(300)]
        maps.append([x % coarse.order for x in fine.elements()])
    verdicts = []
    source, target = fine.table(), coarse.table()
    for phi in maps:
        oracle = len(set(phi)) == coarse.order and _is_homomorphism(source, target, phi)
        ours = _accepts(build_tower, [coarse, fine], [phi])
        verdicts.append(ours)
        assert ours == oracle
    if exhaustive and coarse.order > 1:
        assert True in verdicts and False in verdicts


@pytest.mark.parametrize("entry", bundled_catalog().entries, ids=lambda e: e.label)
def test_generators_close_to_the_group(entry):
    G = entry.group
    gens = G.generators
    assert 2 ** len(gens) <= G.order
    assert len(gens) <= math.log2(G.order)
    table = G.table()
    assert len(oracles.closure(table, gens, oracles.identity_of(table))) == G.order
