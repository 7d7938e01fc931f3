import itertools
import random

import pytest

from finhaar import engel
from finhaar.catalog import bundled_catalog
from finhaar.engel import (
    commutator,
    commutator_idx,
    is_2engel,
    left_normed_idx,
    lower_central_series,
    verify_cube_law,
    verify_engel_consequences,
)
from finhaar.errors import BudgetExceeded, GroupMismatch, SoundnessError
from finhaar.groups import (
    Subgroup,
    build_perm_group,
    build_table_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    generate_subgroup,
    heisenberg_group_3,
    identity_automorphism,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.lattice import all_subgroups

from conftest import A5_GENS, S3_CYCLIC


def test_commutator_with_identity(s3):
    e = s3.element(0)
    for g in s3.elements():
        assert commutator(s3.element(g), e).idx == 0
        assert commutator(e, s3.element(g)).idx == 0


def test_commutator_s3_example(s3):
    # [(0 1), (0 1 2)] is a 3-cycle
    c = commutator(s3.element(1), s3.element(2))
    assert c.idx in S3_CYCLIC and c.idx != 0


def test_commutator_abelian_triple(z6):
    for a, b, c in itertools.product(z6.elements(), repeat=3):
        assert left_normed_idx(z6, a, b, c) == 0


def test_commutator_group_mismatch(s3, z6):
    with pytest.raises(GroupMismatch):
        commutator(s3.element(1), z6.element(1))


def test_commutator_identities(s3, d8, q8):
    for G in (s3, d8, q8):
        for a in G.elements():
            for b in G.elements():
                lhs = G.inv(commutator_idx(G, a, b))
                assert lhs == commutator_idx(G, b, a)
                commutes = G.mul(a, b) == G.mul(b, a)
                assert (commutator_idx(G, a, b) == G.identity) == commutes


def test_is_2engel_abelian(z6):
    assert is_2engel(z6).holds


def test_is_2engel_s3(s3):
    report = is_2engel(s3)
    assert not report.holds
    a, b = report.counterexample
    assert left_normed_idx(s3, a, b, b) != 0
    # least-index pair under breadth-first indexing: two transpositions
    assert (a, b) == (1, 3)
    # independent brute scan agrees on the least violating pair
    brute = next(
        (x, y)
        for x in s3.elements()
        for y in s3.elements()
        if left_normed_idx(s3, x, y, y) != 0
    )
    assert (a, b) == brute


def test_is_2engel_class2_groups(d8, q8, heis27):
    for G in (d8, q8, heis27):
        assert is_2engel(G).holds


def test_is_2engel_subgroup(s3):
    C = generate_subgroup(s3, [2])
    assert is_2engel(C).holds


def test_lower_central_series_abelian(z6):
    series = lower_central_series(z6)
    assert series.nilpotency_class == 1
    assert [t.size for t in series.terms] == [6, 1]


def test_lower_central_series_trivial():
    triv = build_table_group([[0]], label="triv")
    series = lower_central_series(triv)
    assert series.nilpotency_class == 0
    assert len(series.terms) == 1


def test_lower_central_series_s3(s3):
    series = lower_central_series(s3)
    assert series.nilpotency_class is None
    assert series.terms[-1].members == S3_CYCLIC
    assert series.stabilized


def test_lower_central_series_d8(d8):
    series = lower_central_series(d8)
    assert series.nilpotency_class == 2
    assert [t.size for t in series.terms] == [8, 2, 1]


def test_lower_central_series_terms_normal(s3, d8, q8, heis27):
    for G in (s3, d8, q8, heis27):
        series = lower_central_series(G)
        for prev, nxt in zip(series.terms, series.terms[1:]):
            assert set(nxt.members) <= set(prev.members)
        for term in series.terms:
            assert term.is_normal()


def test_heisenberg_class_2(heis27):
    assert lower_central_series(heis27).nilpotency_class == 2


def brute_cube_law(G):
    """Oracle: literal scan over all triples."""
    e = G.identity
    qualifying = 0
    worst = None
    for a in G.elements():
        ia = G.inv(a)
        for b in G.elements():
            ib = G.inv(b)
            probes_left = (
                e,
                b,
                a,
                ia,
                G.mul(a, ib),
                G.mul(b, ia),
                G.mul(a, b),
                G.mul(ib, ia),
            )
            for x in G.elements():
                if all(
                    G.power(G.mul(c, x), 3) == e for c in probes_left
                ):
                    qualifying += 1
                    if worst is None and left_normed_idx(G, a, b, b) != e:
                        worst = (a, b, x)
    return qualifying, worst


def test_cube_law_trivial():
    triv = build_table_group([[0]], label="triv")
    report = verify_cube_law(triv)
    assert report.qualifying_triples == 1
    assert report.holds


def test_cube_law_s3(s3):
    report = verify_cube_law(s3)
    assert report.holds
    assert report.qualifying_triples == 27
    assert report.triples_checked == 216


def test_cube_law_exponent3(heis27):
    report = verify_cube_law(heis27)
    assert report.holds
    assert report.qualifying_triples == 27**3


def _pairs_emptied_late(G):
    """Pairs (a, b) with some x meeting the four cube conditions on x,
    a*x, a^-1*x and b*x, but none meeting all eight: the pairs that no
    condition on a alone, or on b alone, rules out."""
    e = G.identity

    def cube_root(y):
        return G.power(y, 3) == e

    count = 0
    for a, b in itertools.product(G.elements(), repeat=2):
        ia, ib = G.inv(a), G.inv(b)
        early = [x for x in G.elements()
                 if all(cube_root(G.mul(c, x)) for c in (e, a, ia, b))]
        late = (G.mul(a, ib), G.mul(b, ia), G.mul(a, b), G.mul(ib, ia))
        if early and not any(all(cube_root(G.mul(c, x)) for c in late) for x in early):
            count += 1
    return count


def test_cube_law_matches_brute_force(s3, s4, d8, z9):
    f21 = bundled_catalog().get("F21").group
    assert _pairs_emptied_late(s4) == 96 and _pairs_emptied_late(f21) == 336
    for G in (s3, s4, d8, z9, cyclic_group(4), f21):
        report = verify_cube_law(G)
        qualifying, worst = brute_cube_law(G)
        assert report.triples_checked == G.order**3
        assert report.qualifying_triples == qualifying
        assert report.counterexample == worst
        assert worst is None


def test_cube_law_budget(heis27):
    with pytest.raises(BudgetExceeded):
        verify_cube_law(heis27, max_order=8)


def test_consequences_abelian(z6):
    report = verify_engel_consequences(z6)
    assert report.holds
    assert report.nilpotency_class == 1
    assert report.triples_checked == 6**3


def test_consequences_heisenberg(heis27):
    report = verify_engel_consequences(heis27)
    assert report.holds
    assert report.nilpotency_class == 2
    assert report.triples_checked == 27**3


def test_consequences_not_applicable(s3):
    report = verify_engel_consequences(s3)
    assert not report.applicable


def test_consequences_class2_groups(d8, q8):
    for G in (d8, q8):
        report = verify_engel_consequences(G)
        assert report.holds
        assert report.nilpotency_class == 2


def test_consequences_budget(heis27):
    with pytest.raises(BudgetExceeded):
        verify_engel_consequences(heis27, max_order=8)


# -- the pair scan and the all-commutator series as oracles ---------------------


def pair_scan(G, members):
    """Oracle: (least-index counterexample to [a, b, b] = 1, pairs scanned)."""
    checked = 0
    for a in members:
        for b in members:
            checked += 1
            if left_normed_idx(G, a, b, b) != G.identity:
                return (a, b), checked
    return None, checked


def all_commutator_series(G, members):
    """Oracle: member tuples of the lower central series, each term the
    closure of every commutator of a member and a member of the last term."""
    terms = [tuple(sorted(members))]
    while len(terms[-1]) > 1:
        comms = {commutator_idx(G, g, h) for g in members for h in terms[-1]}
        nxt = generate_subgroup(G, sorted(comms)).members
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def brute_classes(G, members):
    """Oracle: the sets {h x h^-1 : h in H}."""
    return {frozenset(G.mul(G.mul(h, x), G.inv(h)) for h in members) for x in members}


def _heis27_rtimes_c3():
    heis = bundled_catalog().get("Heis27")
    return semidirect_c3(heis.group, heis.automorphisms["conj-x"], label="Heis27:conj-x")


def _assert_matches_oracles(G, H):
    members = H.members if isinstance(H, Subgroup) else tuple(G.elements())
    report = is_2engel(H)
    assert (report.counterexample, report.triples_checked) == pair_scan(G, members)
    series = lower_central_series(G, support=None if H is G else H.members)
    assert [t.members for t in series.terms] == all_commutator_series(G, members)
    for term in series.terms:
        assert generate_subgroup(G, term.generators).members == term.members
    classes = conjugacy_classes(H)
    assert {frozenset(c) for c in classes} == brute_classes(G, members)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric_group(4),
        lambda: dihedral_group(8),
        quaternion_group,
        heisenberg_group_3,
        _heis27_rtimes_c3,
        lambda: symmetric_group(5),
    ],
    ids=["S4", "D16", "Q8", "Heis27", "Heis27:conj-x", "S5"],
)
def test_engel_checks_match_oracles_on_every_subgroup(make):
    G = make()
    for H in all_subgroups(G):
        # as built (with generators) and re-wrapped without them
        _assert_matches_oracles(G, H)
        _assert_matches_oracles(G, Subgroup(G, H.members))


@pytest.mark.parametrize(
    "make",
    [lambda: cyclic_group(512), lambda: dihedral_group(256), lambda: symmetric_group(6)],
    ids=["Z512", "D512", "S6"],
)
def test_engel_checks_match_oracles_on_whole_groups(make):
    G = make()
    _assert_matches_oracles(G, G)


def test_engel_checks_refuse_a_set_that_is_not_a_subgroup(s3):
    not_closed = Subgroup(s3, [0, 1, 3])
    for check in (is_2engel, conjugacy_classes, lambda H: lower_central_series(s3, H.members)):
        with pytest.raises(ValueError, match="is not a subgroup"):
            check(not_closed)


# -- sympy as an independent implementation ---------------------------------------------


def _sympy_subgroups():
    """(finhaar group, Subgroup or None, sympy group) for S4, A5, S5, S6 and
    seeded two-generator subgroups of S5 and S6."""
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_group(G, indices):
        degree = len(G.perm_of(0))
        return combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(G.perm_of(i)), size=degree) for i in indices]
        )

    cases = []
    for G in (
        symmetric_group(4),
        build_perm_group(5, A5_GENS, label="A5"),
        symmetric_group(5),
        symmetric_group(6),
    ):
        cases.append((G, None, sympy_group(G, G.generators)))
    rng = random.Random(7)
    for G in (symmetric_group(5), symmetric_group(6)):
        for _ in range(6):
            gens = [rng.randrange(G.order) for _ in range(2)]
            cases.append((G, generate_subgroup(G, gens), sympy_group(G, gens)))
    return cases


def test_series_and_classes_against_sympy():
    cases = _sympy_subgroups()
    assert len({H.size for _G, H, _ref in cases if H is not None}) > 3
    for G, H, ref in cases:
        subject = G if H is None else H
        series = lower_central_series(G, support=None if H is None else H.members)
        assert [t.size for t in series.terms] == [T.order() for T in ref.lower_central_series()]
        assert len(conjugacy_classes(subject)) == len(ref.conjugacy_classes())


# -- the swap law against a plain triple loop -------------------------------------------


def swap_law_triple_loop(G):
    """Oracle: (first (x, y, z) with [x,y,z][x,z,y] != 1, triples scanned)."""
    t, inv = G.table(), [G.inv(x) for x in G.elements()]

    def comm(a, b):
        return t[t[t[inv[a]][inv[b]]][a]][b]

    checked = 0
    for x in G.elements():
        for y in G.elements():
            for z in G.elements():
                checked += 1
                if t[comm(comm(x, y), z)][comm(comm(x, z), y)] != G.identity:
                    return (x, y, z), checked
    return None, checked


def _heis27_times_c3():
    heis = heisenberg_group_3()
    return semidirect_c3(heis, identity_automorphism(heis))


@pytest.mark.parametrize(
    "make", [lambda: dihedral_group(4), quaternion_group, heisenberg_group_3, _heis27_times_c3],
    ids=["D8", "Q8", "Heis27", "Heis27xC3"],
)
def test_consequences_match_a_triple_loop(make):
    G = make()
    report = verify_engel_consequences(G, max_order=G.order)
    assert report.applicable
    assert (report.counterexample, report.triples_checked) == swap_law_triple_loop(G)
    assert report.triples_checked == G.order**3
    assert report.nilpotency_class == len(all_commutator_series(G, range(G.order))) - 1


def test_consequences_report_the_first_failing_triple(monkeypatch):
    # D16 has class 3 but is not 2-Engel, and the swap law fails there;
    # with the 2-Engel gate forced open the scan must find the same triple
    G = dihedral_group(8)
    monkeypatch.setattr(
        engel, "is_2engel",
        lambda H: engel.CommutatorReport(group=G, law="two-engel", counterexample=None,
                                         triples_checked=0),
    )
    report = verify_engel_consequences(G)
    expected = swap_law_triple_loop(G)
    assert expected[0] is not None
    assert (report.counterexample, report.triples_checked) == expected
    assert report.nilpotency_class == 3


@pytest.mark.parametrize(
    "make, cls", [(lambda: symmetric_group(3), None), (lambda: dihedral_group(16), 4)],
    ids=["S3", "D32"],
)
def test_consequences_refuse_a_2engel_subject_of_class_above_3(monkeypatch, make, cls):
    # a 2-Engel group has class at most 3; with the 2-Engel gate forced
    # open, S3 (not nilpotent) and D32 (class 4) must be reported, not passed
    G = make()
    assert lower_central_series(G).nilpotency_class == cls
    monkeypatch.setattr(
        engel, "is_2engel",
        lambda H: engel.CommutatorReport(group=G, law="two-engel", counterexample=None,
                                         triples_checked=0),
    )
    with pytest.raises(SoundnessError, match=rf"{G.label}: 2-Engel subject has nilpotency class {cls},"):
        verify_engel_consequences(G)
