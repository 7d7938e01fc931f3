import importlib
from fractions import Fraction

import pytest

from finhaar import wordsets
from finhaar.catalog import bundled_catalog
from finhaar.engel import left_normed_idx
from finhaar.errors import (
    EmptyTarget,
    OrderNotDividing3,
    SearchBudgetExceeded,
    SoundnessError,
    WrongKind,
)
from finhaar.groups import (
    automorphism_from_map,
    build_table_group,
    dihedral_group,
    generate_subgroup,
    identity_automorphism,
    inner_automorphism,
    inversion_automorphism,
    semidirect_c3,
    symmetric_group,
)
from finhaar.measure import Subset
from finhaar.wordsets import (
    WordSet,
    _grow_seed_set,
    _subgroup_is_2engel,
    commuting_certificate,
    coset_witness,
    engel_pair_certificate,
    extract_abelian_subgroup,
    extract_engel_subgroup,
    inverted_set,
    splitting_set,
    torsion_set,
)

from conftest import S3_CYCLIC, S3_TRANSPOSITIONS, heis27_rtimes_c3


def test_torsion_trivial(s3):
    assert torsion_set(s3, 1).subset.indices() == [0]


def test_torsion_z6(z6):
    X = torsion_set(z6, 3)
    assert X.subset.indices() == [0, 2, 4]
    assert X.measure == Fraction(1, 2)


def test_torsion_s3(s3):
    X = torsion_set(s3, 2)
    assert X.subset.indices() == sorted((0,) + S3_TRANSPOSITIONS)
    assert X.measure == Fraction(2, 3)


def test_inverted_abelian_inversion(z6):
    X = inverted_set(z6, inversion_automorphism(z6))
    assert X.measure == 1


def test_inverted_identity_is_torsion2(s3, z6, d8):
    for G in (s3, z6, d8):
        X = inverted_set(G, identity_automorphism(G))
        assert X.subset == torsion_set(G, 2).subset


def test_inverted_set_symmetric(s3, d8, z7):
    for G in (s3, d8, z7):
        for aut in (identity_automorphism(G),):
            X = inverted_set(G, aut)
            assert X.subset.is_symmetric()


def test_splitting_z9_identity(z9):
    X = splitting_set(z9, identity_automorphism(z9))
    assert X.subset.indices() == [0, 3, 6]
    assert X.measure == Fraction(1, 3)


def test_splitting_z7_doubling(z7):
    aut = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    X = splitting_set(z7, aut)
    assert X.measure == 1


def test_splitting_identity_equals_torsion3(s3, s4, z6, z7, z9, d8, q8, heis27):
    for G in (s3, s4, z6, z7, z9, d8, q8, heis27):
        X = splitting_set(G, identity_automorphism(G))
        assert X.subset.bits == torsion_set(G, 3).subset.bits


def test_splitting_rejects_wrong_order(z9):
    with pytest.raises(OrderNotDividing3):
        splitting_set(z9, inversion_automorphism(z9))


def test_splitting_rotation_property(s3, z9, heis27):
    cases = [
        (s3, inner_automorphism(s3, 2, name="conj-r")),
        (z9, identity_automorphism(z9)),
        (heis27, inner_automorphism(heis27, 9, name="conj-x")),
    ]
    for G, aut in cases:
        X = splitting_set(G, aut)
        second = aut.map_power(2)
        for x in X.subset.indices():
            xa, xa2 = aut.map[x], second[x]
            assert G.mul(G.mul(x, xa2), xa) == G.identity
            assert G.mul(G.mul(xa, x), xa2) == G.identity


def test_splitting_matches_extension_cubes(s3, z7, z9, heis27):
    cases = [
        (s3, identity_automorphism(s3)),
        (s3, inner_automorphism(s3, 2, name="conj-r")),
        (z7, automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")),
        (z9, identity_automorphism(z9)),
        (heis27, inner_automorphism(heis27, 9, name="conj-x")),
    ]
    for G, aut in cases:
        X = splitting_set(G, aut)
        ext = semidirect_c3(G, aut)
        for x in G.elements():
            cubes = ext.power(ext.pair_index(x, 1), 3) == ext.identity
            assert cubes == (x in X.subset)


def test_coset_witness_full_group(s3):
    X = torsion_set(s3, 1)
    W = coset_witness(torsion_set(s3, 6))
    assert W.subgroup.size == 6
    assert W.t == 0
    assert X.subset.size == 1


def test_coset_witness_z6(z6):
    W = coset_witness(torsion_set(z6, 3))
    assert W.subgroup.members == (0, 2, 4)
    assert W.t == 0
    assert W.validate()


def test_coset_witness_s3_involutions(s3):
    W = coset_witness(torsion_set(s3, 2))
    assert W.subgroup.members == S3_CYCLIC
    assert W.t == 1
    assert W.validate()


def test_coset_witness_revalidates(s3, z6, d8, q8):
    for G in (s3, z6, d8, q8):
        for n in (2, 3, 4):
            W = coset_witness(torsion_set(G, n))
            assert W.validate()


def test_commuting_certificate_abelian(z6):
    X = inverted_set(z6, inversion_automorphism(z6))
    for a in z6.elements():
        for b in z6.elements():
            assert commuting_certificate(X, a, b) == 0


def test_commuting_certificate_s3_none(s3):
    X = inverted_set(s3, identity_automorphism(s3))
    assert commuting_certificate(X, 1, 4) is None


def test_commuting_certificate_identity_pair(s3):
    X = inverted_set(s3, identity_automorphism(s3))
    assert commuting_certificate(X, 0, 0) == 0


def test_commuting_certificate_soundness(s3, d8, q8):
    for G in (s3, d8, q8):
        X = inverted_set(G, identity_automorphism(G))
        for a in G.elements():
            for b in G.elements():
                w = commuting_certificate(X, a, b)
                if w is not None:
                    assert left_normed_idx(G, a, b) == G.identity


def test_commuting_certificate_wrong_kind(s3):
    with pytest.raises(WrongKind):
        commuting_certificate(torsion_set(s3, 2), 0, 0)


def test_engel_certificate_exponent3(heis27):
    X = splitting_set(heis27, identity_automorphism(heis27))
    assert X.measure == 1
    for a in (0, 1, 9, 13):
        for b in (0, 2, 14, 26):
            assert engel_pair_certificate(X, a, b) == 0


def test_engel_certificate_s3(s3):
    X = splitting_set(s3, identity_automorphism(s3))
    assert engel_pair_certificate(X, 2, 5) == 0
    assert engel_pair_certificate(X, 1, 0) is None


def test_engel_certificate_soundness(s3, s4, d8):
    for G in (s3, s4, d8):
        X = splitting_set(G, identity_automorphism(G))
        for a in G.elements():
            for b in G.elements():
                w = engel_pair_certificate(X, a, b)
                if w is not None:
                    assert left_normed_idx(G, a, b, b) == G.identity


def test_engel_certificate_wrong_kind(s3):
    with pytest.raises(WrongKind):
        engel_pair_certificate(torsion_set(s3, 3), 0, 0)


@pytest.mark.parametrize(
    "kind, cert_fn, a, b, law",
    [
        ("inverted", commuting_certificate, 1, 2, r"\[1,2\] != 1"),
        ("splitting", engel_pair_certificate, 1, 3, r"\[1,3,3\] != 1"),
    ],
)
def test_a_witness_against_the_law_raises(s3, kind, cert_fn, a, b, law):
    # a forged word set holding all of S3: every pair has a witness, but
    # S3 is neither abelian nor 2-Engel
    forged = WordSet(group=s3, kind=kind, subset=Subset.full(s3))
    with pytest.raises(SoundnessError, match=f"S3: witness 0 found but {law}"):
        cert_fn(forged, a, b)


def test_extraction_from_a_forged_word_set_raises(monkeypatch, s3):
    forged = WordSet(group=s3, kind="splitting", subset=Subset.full(s3))
    monkeypatch.setattr(wordsets, "splitting_set", lambda G, aut: forged)
    # the law gate admits only subgroups on which every pair obeys the
    # law, so it is forged too, to let a failing pair reach the walk
    monkeypatch.setattr(wordsets, "_subgroup_is_2engel", lambda H: True)
    with pytest.raises(SoundnessError, match="S3: witness 0 found but"):
        extract_engel_subgroup(s3, identity_automorphism(s3), mode="proof")


@pytest.mark.parametrize("kind", ["inverted", "splitting"])
def test_row_kernel_finds_each_pairs_least_witness(s4, heis27, kind):
    for G in (s4, heis27):
        aut = identity_automorphism(G)
        X = inverted_set(G, aut) if kind == "inverted" else splitting_set(G, aut)
        A = set(X.subset.indices())
        inv = G.inv
        for a in G.elements():
            row = {}
            ok = wordsets._certify_row(X, a, G.elements(), row)
            for b, witness in row.items():
                ab = G.mul(a, b)
                if kind == "inverted":
                    shifts = [inv(b), inv(a), inv(ab)]
                else:
                    shifts = [inv(b), a, inv(a), G.mul(a, inv(b)), G.mul(b, inv(a)), ab, inv(ab)]
                common = set(A)
                for c in shifts:
                    common &= {G.mul(c, x) for x in A}
                assert witness == (min(common) if common else None)
            assert ok == (len(row) == G.order and None not in row.values())
            assert list(row) == list(G.elements())[: len(row)]


def test_extract_abelian_abelian_group(z6):
    report = extract_abelian_subgroup(z6, inversion_automorphism(z6))
    assert report.result.size == 6
    assert report.verified_normal and report.verified_law
    assert report.coset_witness.subgroup.size == 6
    assert report.coset_witness.t == 0


def test_extract_abelian_s3(s3):
    report = extract_abelian_subgroup(s3, identity_automorphism(s3))
    assert report.word_set.measure == Fraction(2, 3)
    assert report.result.members == S3_CYCLIC
    assert report.result_mode == "direct-search"
    assert report.verified_normal and report.verified_law
    W = report.coset_witness
    assert W.subgroup.members == S3_CYCLIC  # slice A equals K here
    assert W.t == 1
    coset = sorted(s3.mul(W.t, h) for h in W.subgroup.members)
    assert tuple(coset) == S3_TRANSPOSITIONS
    assert W.validate()


def test_extract_abelian_d8(d8):
    report = extract_abelian_subgroup(d8, identity_automorphism(d8))
    assert report.word_set.measure == Fraction(3, 4)
    assert report.result.members == (0, 1, 2, 3)
    W = report.coset_witness
    assert W.subgroup.members == (0, 1, 2, 3)
    assert W.t == 4
    assert W.validate()


def test_extract_modes_monotone(s3, s4, d8, q8):
    for G in (s3, s4, d8, q8):
        report = extract_abelian_subgroup(G, identity_automorphism(G))
        assert report.proof_following is not None
        assert report.direct_search is not None
        assert (
            report.proof_following.subgroup.size
            <= report.direct_search.subgroup.size
        )
        assert report.proof_reached_maximum == (
            report.proof_following.subgroup.size
            == report.direct_search.subgroup.size
        )


def test_extract_engel_exponent3(heis27):
    report = extract_engel_subgroup(heis27, identity_automorphism(heis27))
    assert report.word_set.measure == 1
    assert report.result.size == 27
    assert report.verified_normal and report.verified_law
    assert report.proof_reached_maximum


def test_extract_engel_s3(s3):
    report = extract_engel_subgroup(s3, identity_automorphism(s3))
    assert report.word_set.measure == Fraction(1, 2)
    assert report.result.members == S3_CYCLIC
    assert report.verified_normal and report.verified_law


def test_extract_engel_certificates_recorded(heis27):
    report = extract_engel_subgroup(
        heis27, identity_automorphism(heis27), mode="proof"
    )
    assert report.result_mode == "proof-following"
    assert report.proof_following.certificates
    for cert in report.proof_following.certificates[:50]:
        assert left_normed_idx(heis27, cert.a, cert.b, cert.b) == heis27.identity


def test_extract_direct_gate(s3):
    with pytest.raises(SearchBudgetExceeded, match="^S3: subgroup enumeration capped at order 4$"):
        extract_abelian_subgroup(
            s3, identity_automorphism(s3), mode="direct", limit=4
        )


@pytest.mark.parametrize("extract", [extract_abelian_subgroup, extract_engel_subgroup])
@pytest.mark.parametrize("length", [0, -1])
def test_extraction_rejects_a_product_length_below_1(s3, extract, length):
    with pytest.raises(ValueError, match="^length must be >= 1$"):
        extract(s3, identity_automorphism(s3), mode="proof", length=length)


def test_extract_both_skips_direct_above_gate(s3):
    report = extract_abelian_subgroup(
        s3, identity_automorphism(s3), mode="both", limit=4
    )
    assert report.direct_search is None
    assert report.result_mode == "proof-following"
    assert report.findings == ("direct search skipped: S3: subgroup enumeration capped at order 4",)


def test_a_coset_slice_that_is_not_a_subgroup_is_a_soundness_error(s3, monkeypatch):
    # the cyclic result (0, 2, 5) cut to (0, 2), which is not closed
    def broken_slice(G, X, K):
        return X.subset.indices()[0], list(K.members[:2])

    monkeypatch.setattr(wordsets, "_best_coset_slice", broken_slice)
    with pytest.raises(SoundnessError, match=r"^S3: slice at t=0 is not a subgroup \(members \[0, 2\]\)$"):
        extract_abelian_subgroup(s3, identity_automorphism(s3))


def test_extract_slice_is_subgroup_everywhere(s3, s4, d8, q8, z6):
    for G in (s3, s4, d8, q8, z6):
        auts = [identity_automorphism(G)]
        if G.is_abelian():
            auts.append(inversion_automorphism(G))
        for aut in auts:
            report = extract_abelian_subgroup(G, aut)
            assert report.slice_subgroup is not None
            assert report.coset_witness.validate()
            assert not report.findings


def test_frobenius_splitting_measure_one(z7):
    aut = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    ext = semidirect_c3(z7, aut)
    assert ext.order == 21
    assert splitting_set(z7, aut).measure == 1


def test_splitting_set_need_not_be_inverse_closed(s4, z7):
    # unlike inverted sets, splitting sets can fail X = X^-1: conjugation
    # by a 3-cycle on S4 gives a 9-element splitting set that is not
    # symmetric, and the same happens on the Frobenius group of order 21
    aut = inner_automorphism(s4, s4.index_of_perm((1, 2, 0, 3)), name="conj-r")
    X = splitting_set(s4, aut)
    assert X.subset.size == 9
    assert not X.subset.is_symmetric()
    double = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], name="double")
    f21 = semidirect_c3(z7, double)
    conj = inner_automorphism(f21, 7, name="conj-a")
    assert not splitting_set(f21, conj).subset.is_symmetric()


def test_engel_extract_modes_monotone(s3, s4, d8, q8, heis27):
    for G in (s3, s4, d8, q8, heis27):
        report = extract_engel_subgroup(G, identity_automorphism(G))
        assert (
            report.proof_following.subgroup.size
            <= report.direct_search.subgroup.size
        )


def test_proof_mode_maps_each_translate_once(monkeypatch):
    # finhaar.measure the module, not the function that finhaar exports
    measure_module = importlib.import_module("finhaar.measure")
    real = measure_module._image_masks
    calls = []
    monkeypatch.setattr(
        measure_module, "_image_masks", lambda A, maps: calls.extend(maps) or real(A, maps)
    )
    G = heis27_rtimes_c3()
    report = extract_engel_subgroup(G, identity_automorphism(G), mode="proof")
    # one splitting set, so at most one translate per element of G
    assert len(calls) <= G.order
    assert report.verified_normal and report.verified_law


@pytest.mark.parametrize(
    "make", [heis27_rtimes_c3, lambda: dihedral_group(8)], ids=["Heis27:conj-x", "D16"]
)
def test_seed_growth_checks_each_generated_subgroup_once(monkeypatch, make):
    G = make()
    generated, checked = [], []
    real_extend, real_is_2engel = wordsets._extend, wordsets.is_2engel

    def extend(H, g):
        bigger = real_extend(H, g)
        generated.append(bigger.members)
        return bigger

    def is_2engel(H):
        checked.append(H.members)
        return real_is_2engel(H)

    monkeypatch.setattr(wordsets, "_extend", extend)
    monkeypatch.setattr(wordsets, "is_2engel", is_2engel)
    word = splitting_set(G, identity_automorphism(G))
    _grow_seed_set(G, word, _subgroup_is_2engel, 2)
    assert checked == list(dict.fromkeys(generated))
    assert len(generated) > len(checked)


def _products_up_to(G, seed, length):
    """Products of at most ``length`` letters of ``seed``, which holds the
    identity, sorted: ``length - 1`` rounds of right multiplication."""
    current = set(seed)
    out = set(seed)
    for _ in range(length - 1):
        current = {G.mul(p, v) for p in current for v in seed}
        out |= current
    return sorted(out)


def _grow_seed_set_by_rewalking(G, word_set, cert_fn, law_holds, length):
    """Reference seed growth by the plain rule: every trial closes all of
    its letters, multiplies out its products and walks every pair of
    them, certified before or not."""
    members, cache = {G.identity}, {}

    def certified(a, b):
        if (a, b) not in cache:
            cache[(a, b)] = cert_fn(word_set, a, b)
        return cache[(a, b)]

    for x in G.elements():
        if x in members:
            continue
        trial = members | {x, G.inv(x)}
        if not law_holds(generate_subgroup(G, sorted(trial))):
            continue
        products = _products_up_to(G, sorted(trial), length)
        if all(certified(a, b) is not None for a in products for b in products):
            members = trial
    seed = tuple(sorted(members))
    products = _products_up_to(G, seed, length)
    return seed, tuple(
        wordsets.PairCertificate(a, b, certified(a, b)) for a in products for b in products
    )


_GROWTH_GROUPS = [
    ("Heis27:conj-x", heis27_rtimes_c3, (2, 1, 3)),
    ("D16", lambda: dihedral_group(8), (2, 1, 3)),
    ("S4", lambda: bundled_catalog().get("S4").group, (2, 1, 3)),
    ("S5", lambda: symmetric_group(5), (2, 1, 3)),
    # the rewalk takes about a second on S6, so one length only
    ("S6", lambda: symmetric_group(6), (2,)),
]


@pytest.mark.parametrize(
    "kind, make, length",
    [
        pytest.param(
            kind, make, length, id=f"{kind}-{name}" + ("" if length == 2 else f"-length{length}")
        )
        for length in (2, 1, 3)
        for name, make, lengths in _GROWTH_GROUPS
        if length in lengths
        for kind in ("abelian", "two-engel")
    ],
)
def test_seed_growth_certifies_each_pair_once_as_a_rewalk_would(monkeypatch, kind, make, length):
    G = make()
    aut = identity_automorphism(G)
    if kind == "abelian":
        word, cert_fn, law = inverted_set(G, aut), commuting_certificate, lambda H: H.is_abelian()
    else:
        word, cert_fn, law = splitting_set(G, aut), engel_pair_certificate, _subgroup_is_2engel
    calls = []
    real = wordsets._certify_row

    class Logged(dict):
        """A row that records each witness the kernel writes into it."""

        def __setitem__(self, b, witness):
            calls.append((self.a, b))
            super().__setitem__(b, witness)

    def certify_row(X, a, bs, row):
        logged = Logged(row)
        logged.a = a
        try:
            return real(X, a, bs, logged)
        finally:
            row.update(logged)

    monkeypatch.setattr(wordsets, "_certify_row", certify_row)
    *grown, generated = _grow_seed_set(G, word, law, length)
    grown_calls, calls[:] = calls[:], []
    expected = _grow_seed_set_by_rewalking(G, word, cert_fn, law, length)
    assert tuple(grown) == expected
    assert generated == generate_subgroup(G, grown[0])
    assert grown_calls == calls
    assert len(calls) == len(set(calls))


def _word_and_law(G, kind):
    aut = identity_automorphism(G)
    if kind == "abelian":
        return inverted_set(G, aut), lambda H: H.is_abelian()
    return splitting_set(G, aut), _subgroup_is_2engel


@pytest.mark.parametrize("kind", ["abelian", "two-engel"])
@pytest.mark.parametrize("n", [5, 6])
def test_seed_growth_skips_only_candidates_that_fail_the_law(monkeypatch, kind, n):
    G = symmetric_group(n)
    word, law = _word_and_law(G, kind)
    tried = []
    real = wordsets._extend
    monkeypatch.setattr(wordsets, "_extend", lambda H, g: tried.append(g) or real(H, g))
    seed, _, accepted = _grow_seed_set(G, word, law, 2)
    outside = [x for x in G.elements() if x not in seed]
    # the plain rule closes <A, x> for every x outside the seed
    assert len(tried) < len(outside)
    for x in set(outside) - set(tried):
        assert not law(generate_subgroup(G, accepted.generators + (x,))), x


@pytest.mark.parametrize("kind", ["abelian", "two-engel"])
def test_seed_growth_keeps_at_most_order_levels(monkeypatch, s4, kind):
    # P_1 <= P_2 <= ... grows at most |G| - 1 times and stays put once two
    # levels agree, so a longer length changes nothing past |G| levels
    word, law = _word_and_law(s4, kind)
    sizes = []
    real = wordsets._next_levels
    monkeypatch.setattr(
        wordsets,
        "_next_levels",
        lambda G, letters, new, levels: sizes.append(len(levels)) or real(G, letters, new, levels),
    )
    long = _grow_seed_set(s4, word, law, 10**4)
    assert sizes and max(sizes) <= s4.order
    assert long == _grow_seed_set(s4, word, law, s4.order)


@pytest.mark.parametrize("extract", [extract_abelian_subgroup, extract_engel_subgroup])
def test_proof_mode_on_the_trivial_group(extract):
    G = build_table_group([[0]], label="T1")
    report = extract(G, identity_automorphism(G), mode="proof")
    assert report.result.members == (0,)
    assert report.proof_following.seed_set == (0,)
    assert report.proof_following.certificates == (wordsets.PairCertificate(0, 0, 0),)
    assert report.verified_normal and report.verified_law


def test_an_automorphism_inverting_more_than_three_quarters_forces_abelian(d8, q8, s4, heis27, z7):
    # Liebeck and MacHale (1972): if an automorphism inverts more than 3/4
    # of a finite group, the group is abelian
    double = automorphism_from_map(z7, [(2 * x) % 7 for x in range(7)], "double")
    ladder = [q8, dihedral_group(8), s4, heis27, semidirect_c3(z7, double, label="F21")]
    cases = [(e.group, list(e.automorphisms.values())) for e in bundled_catalog().entries]
    cases += [(G, []) for G in ladder]  # inner automorphisms only
    above = 0
    for G, auts in cases:
        auts = auts + [inner_automorphism(G, g) for g in G.elements()]
        for aut in auts:
            if inverted_set(G, aut).measure > Fraction(3, 4):
                assert G.is_abelian(), (G.label, aut.name)
                above += 1
    assert above  # the abelian groups with inversion do exceed 3/4
    assert inverted_set(d8, identity_automorphism(d8)).measure == Fraction(3, 4)
    assert not d8.is_abelian()


def test_coset_witness_of_an_empty_word_set_names_the_group(s3):
    # no word set built by the library is empty (the identity solves
    # every word), so the empty one is built by hand
    empty = WordSet(group=s3, kind="torsion", subset=Subset.empty(s3), exponent=2)
    with pytest.raises(EmptyTarget) as info:
        coset_witness(empty)
    assert str(info.value).startswith(f"{s3.label}: ")
