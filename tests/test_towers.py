from fractions import Fraction

import pytest

from finhaar.errors import NotMultiplicative, NotSurjective
from finhaar.families import cyclic_group, dihedral_group
from finhaar.towers import build_tower, torsion_images_contained, torsion_measure_sequence


def pow3_tower():
    z3, z9, z27 = cyclic_group(3), cyclic_group(9), cyclic_group(27)
    return build_tower(
        [z3, z9, z27],
        [[x % 3 for x in range(9)], [x % 9 for x in range(27)]],
        name="pow3",
    )


def test_single_level_tower(s3):
    T = build_tower([s3], [], name="just-s3")
    assert T.depth == 1
    assert torsion_measure_sequence(T, 2) == [Fraction(2, 3)]


def test_pow3_tower_sequence():
    T = pow3_tower()
    assert torsion_measure_sequence(T, 3) == [1, Fraction(1, 3), Fraction(1, 9)]
    assert torsion_images_contained(T, 3)


def test_images_contained_builds_each_level_set_once(monkeypatch):
    from finhaar import wordsets

    calls = []

    def counted(G, n):
        calls.append(G.label)
        return torsion_set(G, n)

    torsion_set = wordsets.torsion_set
    monkeypatch.setattr(wordsets, "torsion_set", counted)
    T = pow3_tower()
    assert torsion_images_contained(T, 3)
    # one call per level: 3 for pow3, where 2(d - 1) = 4 would build Z9's set twice
    assert sorted(calls) == sorted(G.label for G in T.levels)


def test_constant_tower(s3):
    T = build_tower([s3, s3, s3], [list(range(6)), list(range(6))], name="const")
    seq = torsion_measure_sequence(T, 2)
    assert seq == [Fraction(2, 3)] * 3


def test_no_hom_z4_to_z3():
    z3, z4 = cyclic_group(3), cyclic_group(4)
    with pytest.raises((NotMultiplicative, NotSurjective)):
        build_tower([z3, z4], [[0, 1, 2, 0]], name="bad")
    with pytest.raises((NotMultiplicative, NotSurjective)):
        build_tower([z3, z4], [[0, 0, 0, 0]], name="bad2")


def test_identity_preserved_check():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    # x -> x+1 mod 2 hits both values but moves the identity
    with pytest.raises(NotMultiplicative):
        build_tower([z2, z4], [[1, 0, 1, 0]], name="shifted")


def test_wrong_map_length():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    with pytest.raises(ValueError):
        build_tower([z2, z4], [[0, 1]], name="short")


def test_dihedral_parity_tower():
    z2, d8 = cyclic_group(2), dihedral_group(4)
    T = build_tower([z2, d8], [[0, 0, 0, 0, 1, 1, 1, 1]], name="d8-flip")
    seq = torsion_measure_sequence(T, 2)
    assert seq == [1, Fraction(3, 4)]
    assert seq[1] <= seq[0]


def test_monotone_across_exponents():
    T = pow3_tower()
    for n in (1, 2, 3, 4, 6, 9, 27):
        seq = torsion_measure_sequence(T, n)
        assert all(b <= a for a, b in zip(seq, seq[1:]))
        assert torsion_images_contained(T, n)
