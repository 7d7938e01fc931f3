import itertools
import math
import random
from fractions import Fraction

import numpy as np
import oracles
import pytest

from finhaar.errors import (
    EmptyBase,
    GroupMismatch,
    SearchBudgetExceeded,
    UnitBallViolated,
)
from finhaar.families import cyclic_group
from finhaar.measure import (
    GroupFunction,
    LargenessCertificate,
    Subset,
    average_translate_intersection,
    format_rational,
    k_large_certificate,
    l2_distance,
    measure,
    translate_intersection_measure,
    translate_product_mean,
)

from conftest import S3_CYCLIC


def test_measure_basics(s3):
    assert measure(Subset.empty(s3)) == 0
    assert measure(Subset.full(s3)) == 1
    cube_roots = Subset.from_indices(s3, oracles.torsion(s3.table(), 3))
    assert cube_roots.indices() == list(S3_CYCLIC)
    assert measure(cube_roots) == Fraction(1, 2)


def test_format_rational():
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(0, 5)) == "0/1"
    assert format_rational(1) == "1/1"


def test_inclusion_exclusion(s3, d8):
    rng = random.Random("inclusion")
    for G in (s3, d8):
        for _ in range(50):
            A = Subset(G, rng.getrandbits(G.order))
            B = Subset(G, rng.getrandbits(G.order))
            assert measure(A & B) + measure(A | B) == measure(A) + measure(B)


def test_translation_invariance(s3, q8):
    rng = random.Random("translation")
    for G in (s3, q8):
        for _ in range(20):
            A = Subset(G, rng.getrandbits(G.order))
            for x in G.elements():
                assert measure(A.left_translate(x)) == measure(A)
                assert measure(A.right_translate(x)) == measure(A)


def test_set_difference(s3, z6):
    rng = random.Random("difference")
    for _ in range(20):
        A = Subset(s3, rng.getrandbits(s3.order))
        B = Subset(s3, rng.getrandbits(s3.order))
        expected = sorted(set(A.indices()) - set(B.indices()))
        assert (A - B).indices() == expected
        assert (A - B).group is s3
    with pytest.raises(GroupMismatch):
        Subset.full(s3) - Subset.full(z6)


def test_translate_intersection_z4():
    z4 = cyclic_group(4)
    A = Subset.from_indices(z4, [0, 1])
    assert translate_intersection_measure([A, A], [0, 0]) == Fraction(1, 2)
    assert translate_intersection_measure([A, A], [0, 2]) == 0
    assert translate_intersection_measure([A, A], [0, 1]) == Fraction(1, 4)


def test_translate_intersection_full_sets(s3):
    full = Subset.full(s3)
    for xs in itertools.product(s3.elements(), repeat=2):
        assert translate_intersection_measure([full, full], xs) == 1


def test_translate_intersection_group_mismatch(s3, z6):
    with pytest.raises(GroupMismatch):
        translate_intersection_measure(
            [Subset.full(s3), Subset.full(z6)], [0, 0]
        )


def test_average_z4_pair():
    z4 = cyclic_group(4)
    A = Subset.from_indices(z4, [0, 1])
    out = average_translate_intersection([A, A])
    assert out.average == Fraction(1, 4)
    assert out.product_of_measures == Fraction(1, 4)
    assert out.identity_holds


def test_average_s3_cyclic_subgroup(s3):
    C = Subset.from_indices(s3, S3_CYCLIC)
    out = average_translate_intersection([C, C])
    assert out.average == Fraction(1, 4)
    assert out.identity_holds


def test_average_with_empty_set(s3):
    out = average_translate_intersection([Subset.empty(s3), Subset.full(s3)])
    assert out.average == 0
    assert out.product_of_measures == 0


def test_average_matches_brute_force(s3):
    # independent oracle: enumerate every tuple with fresh set arithmetic
    rng = random.Random("fubini-brute")
    table = s3.table()
    for _ in range(5):
        A = Subset(s3, rng.getrandbits(6))
        B = Subset(s3, rng.getrandbits(6))
        total = Fraction(0)
        for x in s3.elements():
            xa = oracles.left_translate(table, x, A.indices())
            for y in s3.elements():
                yb = oracles.left_translate(table, y, B.indices())
                total += Fraction(len(xa & yb), 6)
        brute = total / 36
        assert average_translate_intersection([A, B]).average == brute


def test_average_budget():
    z6 = cyclic_group(6)
    with pytest.raises(SearchBudgetExceeded):
        average_translate_intersection(
            [Subset.full(z6)] * 3, budget=100
        )


def test_averaging_identity_random_families(s3, d8, z9):
    rng = random.Random("fubini")
    for G in (s3, d8, z9):
        for n in (1, 2, 3):
            for _ in range(10):
                sets = [Subset(G, rng.getrandbits(G.order)) for _ in range(n)]
                out = average_translate_intersection(sets)
                assert out.average == out.product_of_measures


def test_unit_ball_enforced(s3):
    with pytest.raises(UnitBallViolated):
        GroupFunction(s3, [2.0] + [0.0] * 5)


def test_translate_product_mean_constant(s3):
    one = GroupFunction.constant(s3, 1.0)
    for xs in itertools.product(s3.elements(), repeat=2):
        assert translate_product_mean([one, one], xs) == pytest.approx(1.0)


def test_translate_product_mean_z2_example():
    z2 = cyclic_group(2)
    f = GroupFunction(z2, [1.0, -1.0])
    assert translate_product_mean([f], [1]) == pytest.approx(0.0)


def test_indicator_reduction(s3, d8):
    rng = random.Random("indicator")
    for G in (s3, d8):
        for _ in range(10):
            A = Subset(G, rng.getrandbits(G.order))
            B = Subset(G, rng.getrandbits(G.order))
            xs = [rng.randrange(G.order), rng.randrange(G.order)]
            exact = translate_intersection_measure([A, B], xs)
            approx = translate_product_mean(
                [GroupFunction.indicator(A), GroupFunction.indicator(B)], xs
            )
            assert abs(approx - float(exact)) < 1e-12


def test_translate_product_modulus_bound(s3):
    rng = np.random.default_rng(7)
    for _ in range(20):
        funcs = [GroupFunction.random_unit(s3, rng) for _ in range(3)]
        xs = [int(rng.integers(6)) for _ in range(3)]
        assert abs(translate_product_mean(funcs, xs)) <= 1.0 + 1e-12


def test_lipschitz_bound_seeded(s3, d8):
    rng = np.random.default_rng(2024)
    for G in (s3, d8):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            funcs = [GroupFunction.random_unit(G, rng) for _ in range(n)]
            xs = [int(rng.integers(G.order)) for _ in range(n)]
            ys = [int(rng.integers(G.order)) for _ in range(n)]
            lhs = abs(
                translate_product_mean(funcs, xs)
                - translate_product_mean(funcs, ys)
            )
            rhs = sum(
                l2_distance(f.left_translate(x), f.left_translate(y))
                for f, x, y in zip(funcs, xs, ys)
            )
            assert lhs <= rhs + 1e-10


def test_klarge_full_base(s3):
    for k in (1, 2, 3):
        cert = k_large_certificate(Subset.full(s3), k)
        assert cert.u_set.size == 6
        assert cert.validate()


def test_klarge_s3_cyclic(s3):
    C = Subset.from_indices(s3, S3_CYCLIC)
    for k in (1, 2, 3):
        cert = k_large_certificate(C, k)
        assert cert.u_set.indices() == list(S3_CYCLIC)
        assert cert.validate()


def test_klarge_s3_pair(s3):
    A = Subset.from_indices(s3, [0, 1])
    cert = k_large_certificate(A, 1)
    assert cert.u_set.indices() == [0, 1]
    assert cert.validate()


def test_forged_certificates_do_not_validate(s3):
    full, pair = Subset.full(s3), Subset.from_indices(s3, [0, 1])
    three_cycle = 2  # (0 1 2), whose inverse (0 2 1) is index 5
    assert s3.inv(three_cycle) == 5
    lacks_identity = Subset.from_indices(s3, [1])
    assert lacks_identity.is_symmetric()
    assert not LargenessCertificate(s3, full, 1, lacks_identity).validate()
    not_symmetric = Subset.from_indices(s3, [s3.identity, three_cycle])
    assert not LargenessCertificate(s3, full, 1, not_symmetric).validate()
    # U = S3 holds the identity and is symmetric, but (0 1 2){e, (0 1)}
    # is {(0 1 2), (0 1 2)(0 1)} and misses {e, (0 1)}
    assert s3.mul(three_cycle, 1) not in (0, 1)
    assert not LargenessCertificate(s3, pair, 1, full).validate()
    assert LargenessCertificate(s3, pair, 1, pair).validate()
    # U = {e} leaves no set of distinct members but the empty one, which
    # still needs the base to be nonempty
    only_e = Subset.from_indices(s3, [s3.identity])
    assert not LargenessCertificate(s3, Subset.empty(s3), 2, only_e).validate()
    assert LargenessCertificate(s3, pair, 2, only_e).validate()


def test_klarge_empty_base(s3):
    with pytest.raises(EmptyBase):
        k_large_certificate(Subset.empty(s3), 1)


def test_klarge_budget(s3):
    with pytest.raises(SearchBudgetExceeded):
        k_large_certificate(Subset.full(s3), 3, budget=5)


def test_klarge_exhaustive_gate(heis27):
    with pytest.raises(SearchBudgetExceeded):
        k_large_certificate(Subset.full(heis27), 1, strategy="exhaustive")


def test_greedy_never_beats_exhaustive(s3, z9, k=2):
    rng = random.Random("greedy-vs-exhaustive")
    for G in (s3, z9):
        for _ in range(5):
            bits = rng.getrandbits(G.order) or 1
            A = Subset(G, bits)
            greedy = k_large_certificate(A, k, strategy="greedy")
            exhaustive = k_large_certificate(A, k, strategy="exhaustive")
            assert greedy.validate()
            assert greedy.u_set.size <= exhaustive.u_set.size


def _inverse_class_sizes(table):
    """|{x, x^-1}| per class other than the identity's, by least member."""
    inv, e = oracles.inverses(table), oracles.identity_of(table)
    classes = {tuple(sorted({x, inv[x]})) for x in range(len(table)) if x != e}
    return [len(c) for c in sorted(classes)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_greedy_checks_each_tuple_once(s4, k):
    # on the full base every extension succeeds, so the search checks
    # each set of min(k, |rest| + |C|) distinct non-identity members
    # that meets the new class C exactly once: with r members kept so
    # far, the part D of C takes the other m - |D| from those r
    checks, r = 0, 0
    for size in _inverse_class_sizes(s4.table()):
        m = min(k, r + size)
        checks += sum(
            math.comb(size, d) * math.comb(r, m - d) for d in range(1, min(size, m) + 1)
        )
        r += size
    cert = k_large_certificate(Subset.full(s4), k, budget=checks)
    assert cert.u_set.size == s4.order
    with pytest.raises(SearchBudgetExceeded):
        k_large_certificate(Subset.full(s4), k, budget=checks - 1)


@pytest.mark.parametrize("n", [7, 9, 27])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_greedy_tries_each_inverse_class_once(n, k):
    # in Z_n, n odd, xA misses A = {0} for every x != 0, so each of the
    # (n - 1) / 2 classes {x, -x} fails at its first set: {x} for k = 1,
    # {x, -x} for k >= 2 (no set of two holds x alone while U = {0}); U
    # starts as {0} without a check, so that is (n - 1) / 2 checks
    G = cyclic_group(n)
    A = Subset.from_indices(G, [G.identity])
    checks = (n - 1) // 2
    cert = k_large_certificate(A, k, budget=checks)
    assert cert.u_set.indices() == [G.identity]
    with pytest.raises(SearchBudgetExceeded):
        k_large_certificate(A, k, budget=checks - 1)
