import itertools
import random
import re

import oracles
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
from finhaar.errors import GroupMismatch, SearchBudgetExceeded, SoundnessError
from finhaar.families import (
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)
from finhaar.groups import (
    Subgroup,
    automorphism_from_map,
    build_perm_group,
    build_table_group,
    generate_subgroup,
    identity_automorphism,
)
from finhaar.lattice import all_subgroups, conjugacy_classes, normal_closure

from conftest import A5_GENS, S3_CYCLIC, Arithmetic, heis27_rtimes_c3


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


def _cube_xs(ar, roots, a, b):
    """Oracle: the x meeting all eight cube conditions of the pair (a, b),
    where ``roots`` is the set {y : y^3 = 1}."""
    ia, ib = ar.inv[a], ar.inv[b]
    probes_left = (ar.e, b, a, ia, ar.mul(a, ib), ar.mul(b, ia), ar.mul(a, b), ar.mul(ib, ia))
    return [x for x in range(len(ar.t)) if all(ar.t[c][x] in roots for c in probes_left)]


def brute_cube_law(G, breaks=None):
    """Oracle: literal scan over all triples on G's table; ``breaks(a, b)``
    decides [a, b, b] != 1, from the commutator unless given."""
    ar = Arithmetic(G.table())
    roots = oracles.torsion(ar.t, 3)
    if breaks is None:
        def breaks(a, b):
            return ar.comm(ar.comm(a, b), b) != ar.e
    qualifying = 0
    worst = None
    for a, b in itertools.product(range(len(ar.t)), repeat=2):
        xs = _cube_xs(ar, roots, a, b)
        qualifying += len(xs)
        if xs and worst is None and breaks(a, b):
            worst = (a, b, xs[0])
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
    """Pairs (a, b), in least-index order, with some x meeting the four
    cube conditions on x, a*x, a^-1*x and b*x, but none meeting all
    eight: the pairs that no condition on a alone, or on b alone, rules out."""
    ar = Arithmetic(G.table())
    roots = oracles.torsion(ar.t, 3)
    pairs = []
    for a, b in itertools.product(range(len(ar.t)), repeat=2):
        ia, ib = ar.inv[a], ar.inv[b]
        early = [x for x in range(len(ar.t))
                 if all(ar.t[c][x] in roots for c in (ar.e, a, ia, b))]
        late = (ar.mul(a, ib), ar.mul(b, ia), ar.mul(a, b), ar.mul(ib, ia))
        if early and not any(all(ar.t[c][x] in roots for c in late) for x in early):
            pairs.append((a, b))
    return pairs


def test_cube_law_matches_brute_force(s3, s4, d8, z9, q8):
    f21 = bundled_catalog().get("F21").group
    assert len(_pairs_emptied_late(s4)) == 96 and len(_pairs_emptied_late(f21)) == 336
    a4 = build_perm_group(4, [(1, 2, 0, 3), (1, 0, 3, 2)], label="A4")
    for G in (s3, s4, d8, z9, cyclic_group(4), f21, a4, dihedral_group(6), q8):
        report = verify_cube_law(G)
        qualifying, worst = brute_cube_law(G)
        assert report.triples_checked == G.order**3
        assert report.qualifying_triples == qualifying
        assert report.counterexample == worst
        assert worst is None


@pytest.mark.parametrize(
    "make, qualifying",
    [
        (lambda: symmetric_group(5), 861),
        (lambda: build_perm_group(5, A5_GENS, label="A5"), 861),
        (lambda: symmetric_group(6), 10881),
        (lambda: dihedral_group(128), 1),
    ],
    ids=["S5", "A5", "S6", "D256"],
)
def test_cube_law_counts_at_larger_orders(make, qualifying):
    # the counts of the least-index (a, b) scan over all |G|^3 triples
    G = make()
    report = verify_cube_law(G, max_order=720)
    assert (report.counterexample, report.qualifying_triples) == (None, qualifying)
    assert report.triples_checked == G.order**3


@pytest.mark.parametrize("label", ["S4", "F21"])
def test_cube_law_reports_a_forged_counterexample_as_the_oracle_does(monkeypatch, label):
    # the lemma is a theorem, so no group reaches the counterexample branch:
    # forge [a, b, b] != 1 on chosen pairs, among those with a qualifying x
    # and among those emptied late, which have none and are never reported
    G = bundled_catalog().get(label).group
    late = _pairs_emptied_late(G)
    ar = Arithmetic(G.table())
    roots = oracles.torsion(ar.t, 3)
    pairs = [
        (a, b) for a, b in itertools.product(G.elements(), repeat=2) if _cube_xs(ar, roots, a, b)
    ]
    after = [p for p in pairs if p > late[0]]
    real, not_e = engel.left_normed_idx, 1 - G.identity
    for forged, first in (
        ({late[0], after[0], late[-1], pairs[-1]}, after[0]),
        ({pairs[len(pairs) // 2], pairs[-1]}, pairs[len(pairs) // 2]),
        (set(late), None),
    ):
        def fake(H, a, b, *rest):
            return not_e if (a, b) in forged and rest == (b,) else real(H, a, b, *rest)

        monkeypatch.setattr(engel, "left_normed_idx", fake)
        report = verify_cube_law(G)
        qualifying, worst = brute_cube_law(G, breaks=lambda a, b: (a, b) in forged)
        assert (report.counterexample, report.qualifying_triples) == (worst, qualifying)
        assert (worst[:2] if worst else None) == first
        assert report.counterexample is None or report.counterexample[:2] not in late


def test_cube_law_budget(heis27):
    with pytest.raises(SearchBudgetExceeded):
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
    with pytest.raises(SearchBudgetExceeded):
        verify_engel_consequences(heis27, max_order=8)


# -- the pair scan and the all-commutator series as oracles ---------------------


def pair_scan(ar, members):
    """Oracle: (least-index counterexample to [a, b, b] = 1, pairs scanned)."""
    checked = 0
    for a in members:
        for b in members:
            checked += 1
            if ar.comm(ar.comm(a, b), b) != ar.e:
                return (a, b), checked
    return None, checked


def all_commutator_series(ar, members):
    """Oracle: member tuples of the lower central series, each term the
    closure of every commutator of a member and a member of the last term."""
    terms = [tuple(sorted(members))]
    while len(terms[-1]) > 1:
        comms = {ar.comm(g, h) for g in members for h in terms[-1]}
        nxt = tuple(sorted(oracles.closure(ar.t, comms, ar.e)))
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def brute_classes(ar, members):
    """Oracle: the sets {h x h^-1 : h in H}."""
    return {frozenset(ar.mul(h, x, ar.inv[h]) for h in members) for x in members}


def _assert_matches_oracles(G, H):
    ar = Arithmetic(G.table())
    members = H.members if isinstance(H, Subgroup) else tuple(G.elements())
    report = is_2engel(H)
    assert (report.counterexample, report.triples_checked) == pair_scan(ar, members)
    series = lower_central_series(H)
    assert [t.members for t in series.terms] == all_commutator_series(ar, members)
    for term in series.terms:
        assert generate_subgroup(G, term.generators).members == term.members
    classes = conjugacy_classes(H)
    assert {frozenset(c) for c in classes} == brute_classes(ar, members)
    assert [c[0] for c in classes] == sorted(c[0] for c in classes)


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric_group(4),
        lambda: dihedral_group(8),
        quaternion_group,
        heisenberg_group_3,
        heis27_rtimes_c3,
        lambda: symmetric_group(5),
    ],
    ids=["S4", "D16", "Q8", "Heis27", "Heis27:conj-x", "S5"],
)
def test_engel_checks_match_oracles_on_every_subgroup(make):
    G = make()
    for H in all_subgroups(G):
        # as built and rebuilt from its members alone (greedy generators)
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
    # the constructor refuses it, so no Engel check ever sees one
    with pytest.raises(ValueError, match=re.escape("Subgroup on S3: [0, 1, 3] is not a subgroup")):
        Subgroup(s3, [0, 1, 3])


# -- sympy as an independent implementation ---------------------------------------------


def _sympy_subgroups():
    """(finhaar group, Subgroup or None, sympy subgroup, sympy group) for S4,
    A5, S5, S6, seeded two-generator subgroups of S5 and S6, and the
    bundled S3 and S4 with every subgroup of each."""
    combinatorics = pytest.importorskip("sympy.combinatorics")

    def sympy_group(G, indices):
        # the trivial subgroup records no generators
        perms = [_sympy_perm(G, i) for i in indices or [G.identity]]
        return combinatorics.PermutationGroup(perms)

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
    for label in ("S3", "S4"):
        G = bundled_catalog().get(label).group
        cases.append((G, None, sympy_group(G, G.generators)))
        cases += [(G, H, sympy_group(G, H.generators)) for H in all_subgroups(G)]
    return [(G, H, ref, sympy_group(G, G.generators)) for G, H, ref in cases]


def _sympy_perm(G, x):
    """Element x of a permutation-backed group as a sympy Permutation."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.Permutation(list(G.perm_of(x)), size=len(G.perm_of(0)))


def test_series_and_classes_against_sympy():
    cases = _sympy_subgroups()
    assert len({H.size for _G, H, _ref, _refG in cases if H is not None}) > 3
    normal = set()
    for G, H, ref, ref_G in cases:
        subject = G if H is None else H
        series = lower_central_series(subject)
        assert [t.size for t in series.terms] == [T.order() for T in ref.lower_central_series()]
        assert len(conjugacy_classes(subject)) == len(ref.conjugacy_classes())
        if H is not None:
            assert H.is_normal() == ref.is_normal(ref_G)
            normal.add(H.is_normal())
        for x in subject.generators:
            closure = ref_G.normal_closure(_sympy_perm(G, x))
            assert normal_closure(G, [x]).size == closure.order()
    assert normal == {True, False}


# -- the swap law against a plain triple loop -------------------------------------------


def swap_law_triple_loop(G):
    """Oracle: (first (x, y, z) with [x,y,z][x,z,y] != 1, triples scanned)."""
    t = G.table()
    e, inv = oracles.identity_of(t), oracles.inverses(t)

    def comm(a, b):
        return t[t[t[inv[a]][inv[b]]][a]][b]

    checked = 0
    for x, y, z in itertools.product(range(len(t)), repeat=3):
        checked += 1
        if t[comm(comm(x, y), z)][comm(comm(x, z), y)] != e:
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
    ar = Arithmetic(G.table())
    assert report.nilpotency_class == len(all_commutator_series(ar, range(G.order))) - 1


def _open_2engel_gate(monkeypatch):
    monkeypatch.setattr(
        engel, "is_2engel",
        lambda H: engel.CommutatorReport(group=H, law="two-engel", counterexample=None,
                                         triples_checked=0),
    )


def test_consequences_report_the_first_failing_triple(monkeypatch):
    # D16 has class 3 but is not 2-Engel, and the swap law fails there;
    # with the 2-Engel gate forced open the scan must find the same triple
    G = dihedral_group(8)
    _open_2engel_gate(monkeypatch)
    report = verify_engel_consequences(G)
    expected = swap_law_triple_loop(G)
    assert expected[0] is not None
    assert (report.counterexample, report.triples_checked) == expected
    assert report.nilpotency_class == 3


def _c3_wr_c3():
    """C3 wr C3: Z3^3 extended by the cycle of its coordinates (order 81, class 3)."""
    vectors = list(itertools.product(range(3), repeat=3))
    at = {v: i for i, v in enumerate(vectors)}
    z3_cubed = build_table_group(
        [[at[tuple((p + q) % 3 for p, q in zip(u, v))] for v in vectors] for u in vectors]
    )
    cycle = automorphism_from_map(z3_cubed, [at[(v[2], v[0], v[1])] for v in vectors])
    return semidirect_c3(z3_cubed, cycle, label="C3wrC3")


def _tabulated(G, members):
    """The subgroup on ``members`` as a table group of its own."""
    at = {x: i for i, x in enumerate(members)}
    return build_table_group([[at[G.mul(x, y)] for y in members] for x in members])


@pytest.mark.parametrize("make", [lambda: dihedral_group(8), _c3_wr_c3], ids=["D16", "C3wrC3"])
def test_swap_law_is_trilinear_in_class_3(make):
    # the premise of checking the swap law on generators alone:
    # f(x, y, z) = [x,y,z][x,z,y] is a homomorphism in each argument
    np = pytest.importorskip("numpy")
    G = make()
    assert lower_central_series(G).nilpotency_class == 3
    t, inv = np.array(G.table()), np.array([G.inv(x) for x in G.elements()])

    def comm(a, b):
        return t[t[t[inv[a], inv[b]], a], b]

    x, y, z = np.ix_(*[np.arange(G.order)] * 3)
    f = t[comm(comm(x, y), z), comm(comm(x, z), y)]
    for axis in range(3):
        g = np.moveaxis(f, axis, 0)
        for u in G.elements():
            # g[u * v] = g[u] g[v] for every v, at every value of the other two
            assert (g[t[u]] == t[g[u][None], g]).all()


@pytest.mark.parametrize("make", [lambda: dihedral_group(8), _c3_wr_c3], ids=["D16", "C3wrC3"])
def test_swap_law_verdicts_match_a_triple_loop_on_every_subgroup(monkeypatch, make):
    # with the 2-Engel gate forced open, the generator check decides every
    # subgroup (each of class <= 3) as the triple loop does, and a failure
    # is scanned
    _open_2engel_gate(monkeypatch)
    G = make()
    verdicts = set()
    for H in all_subgroups(G):
        K = _tabulated(G, H.members)
        report = verify_engel_consequences(K, max_order=K.order)
        expected = swap_law_triple_loop(K)
        assert (report.counterexample, report.triples_checked) == expected
        verdicts.add(expected[0] is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "make, cls", [(lambda: symmetric_group(3), None), (lambda: dihedral_group(16), 4)],
    ids=["S3", "D32"],
)
def test_consequences_refuse_a_2engel_subject_of_class_above_3(monkeypatch, make, cls):
    # a 2-Engel group has class at most 3; with the 2-Engel gate forced
    # open, S3 (not nilpotent) and D32 (class 4) must be reported, not passed
    G = make()
    assert lower_central_series(G).nilpotency_class == cls
    _open_2engel_gate(monkeypatch)
    with pytest.raises(SoundnessError, match=rf"{G.label}: 2-Engel subject has nilpotency class {cls},"):
        verify_engel_consequences(G)
