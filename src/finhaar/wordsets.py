"""Word-defined subsets and the constructive subgroup extractions.

Three families of sets are supported: solutions of x^n = 1 (torsion),
elements inverted by an automorphism, and the splitting set of an
order-dividing-3 automorphism.  On top of them sit the translate
intersection certificates and the two extraction procedures that
produce a normal abelian (resp. 2-Engel) subgroup together with the
evidence used.

Pair certificates are made a row at a time by one kernel
(``_certify_row``): the translates that depend only on a are
intersected once per row, those that depend on b are read from the one
table per subset, built on first use (``Subset.translates``), and every
witness is re-checked against the law.
The public pair functions call it with a single b.  Proof-following
extraction grows its seed in one incremental walk
(``_grow_seed_set``): each trial extends the last accepted subgroup by
the candidate a coset at a time, builds the bounded products level by
level from the accepted seed's, and certifies only the pairs with a
new product (the standard incremental closure; Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005).  The laws pass to
subgroups, so a candidate whose subgroup fails the law rules out its
double cosets and coprime powers, as in the lattice search.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from itertools import chain, repeat

from .engel import is_2engel
from .errors import (
    EmptyTarget,
    OrderNotDividing3,
    SearchBudgetExceeded,
    SoundnessError,
    WrongKind,
)
from .groups import Subgroup, _extend, _index, _record, generate_subgroup
from .lattice import (
    SUBGROUP_SCAN_LIMIT,
    _double_coset_marker,
    maximal_subgroup_satisfying,
    normal_core,
)
from .measure import Subset

DEFAULT_PRODUCT_LENGTH = 2


@_record
class WordSet:
    """A word-defined subset together with its defining data."""

    group: object
    kind: str  # "torsion" | "inverted" | "splitting"
    subset: Subset
    exponent: int | None = None
    aut: object = None

    def spec_string(self):
        if self.kind == "torsion":
            return f"torsion:{self.exponent}"
        return f"{self.kind}:{self.aut.name}"

    @property
    def measure(self):
        return self.subset.measure


def torsion_set(G, n):
    """Solutions of x^n = identity."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    subset = Subset.from_predicate(G, lambda g: G.power(g, n) == G.identity)
    return WordSet(group=G, kind="torsion", subset=subset, exponent=n)


def inverted_set(G, aut):
    """Elements sent to their inverse by the automorphism."""
    if aut.group is not G:
        raise WrongKind("automorphism belongs to a different group")
    subset = Subset.from_predicate(G, lambda g: aut.map[g] == G.inv(g))
    return WordSet(group=G, kind="inverted", subset=subset, aut=aut)


def splitting_set(G, aut):
    """Elements with x^(aut^2) * x^aut * x = identity (aut order divides 3)."""
    if aut.group is not G:
        raise WrongKind("automorphism belongs to a different group")
    if 3 % aut.order != 0:
        raise OrderNotDividing3(
            f"{G.label}/{aut.name}: order {aut.order} does not divide 3"
        )
    second = aut.map_power(2)
    subset = Subset.from_predicate(
        G, lambda g: G.mul(G.mul(second[g], aut.map[g]), g) == G.identity
    )
    return WordSet(group=G, kind="splitting", subset=subset, aut=aut)


# -- coset witnesses -----------------------------------------------------------


@_record
class CosetWitness:
    """A subgroup H and an element t with the whole coset tH inside the target.

    ``fallback`` says why the trivial witness was returned without a
    search; it is None for a searched witness.
    """

    group: object
    subgroup: Subgroup
    t: int
    target: WordSet
    fallback: str | None = None

    def validate(self):
        """Whether tH lies inside the target, that is H inside t^-1 X."""
        G = self.group
        h = Subset.from_indices(G, self.subgroup.members).bits
        return self.target.subset.translates()[G.inv(self.t)] & h == h


def coset_witness(X, limit=SUBGROUP_SCAN_LIMIT):
    """Largest subgroup H admitting a coset tH inside X, and the least
    such t.

    H is ``maximal_subgroup_satisfying``'s, so size ties break to the
    least member tuple.  Past the lattice's order cap ``limit`` the
    always-valid ({identity}, least element of X) is returned, with the
    lattice's message as its ``fallback``.
    """
    G = X.group
    if X.subset.size == 0:
        raise EmptyTarget(f"{G.label}: word set {X.spec_string()} is empty")
    members_of_x = X.subset.indices()

    def least_t(H):
        # tH lies in X iff H lies in t^-1 X; the table is not built on a fallback
        shifted = X.subset.translates()
        h = Subset.from_indices(G, H.members).bits
        return next((t for t in members_of_x if shifted[G.inv(t)] & h == h), None)

    try:
        H = maximal_subgroup_satisfying(G, lambda H: least_t(H) is not None, limit)
    except SearchBudgetExceeded as exc:
        return CosetWitness(
            group=G,
            subgroup=Subgroup._trusted(G, [G.identity]),
            t=members_of_x[0],
            target=X,
            fallback=str(exc),
        )
    return CosetWitness(group=G, subgroup=H, t=least_t(H), target=X)


# -- pair certificates ----------------------------------------------------------


def _certify_row(X, a, bs, row):
    """Certify the pairs (a, b) for b in ``bs``, in order, up to the first
    pair without a witness; return whether every pair has one.

    ``row`` maps each b certified before to its least witness (None when
    there is none), is read instead of recomputing and gets each new
    pair.  The translates are read from the one table of X's subset,
    built on first use (``Subset.translates``): entry c is the bitmask of
    cX.  An inverted set certifies [a, b] = 1 by A & a^-1A & b^-1A &
    (ab)^-1A, a splitting set certifies [a, b, b] = 1 by A & aA & a^-1A &
    b^-1A & ab^-1A & ba^-1A & abA & (ab)^-1A; the translates by a alone
    are intersected once for the whole row.  Each witness is re-checked
    against the law read from the table rows: SoundnessError if it fails.
    """
    G = X.group
    t, inv = G._table, G._inv
    ta, ia = t[a], inv[a]
    engel = X.kind == "splitting"
    shifted = X.subset.translates()
    row_mask = X.subset.bits & shifted[ia]
    if engel:
        row_mask &= shifted[a]
    for b in bs:
        if b in row:
            if row[b] is None:
                return False
            continue
        ab, ib = ta[b], inv[b]
        if engel:
            mask = row_mask & shifted[ib] & shifted[ta[ib]] & shifted[t[b][ia]]
            mask &= shifted[ab] & shifted[inv[ab]]
        else:
            mask = row_mask & shifted[ib] & shifted[inv[ab]]
        if not mask:
            row[b] = None
            return False
        witness = row[b] = (mask & -mask).bit_length() - 1
        if engel:
            c = t[t[t[ia][ib]][a]][b]  # [a, b]; [a, b, b] = 1 iff it commutes with b
            if t[c][b] != t[b][c]:
                raise SoundnessError(
                    f"{G.label}: witness {witness} found but [{a},{b},{b}] != 1"
                )
        elif ab != t[b][a]:
            raise SoundnessError(f"{G.label}: witness {witness} found but [{a},{b}] != 1")
    return True


def _certify_pair(X, a, b):
    row = {}
    _certify_row(X, a, (b,), row)
    return row[b]


def commuting_certificate(X, a, b):
    """Least witness x of the four-translate intersection, or None.

    A witness forces [a, b] = identity, which is re-verified; X must be
    an inverted set.
    """
    if X.kind != "inverted":
        raise WrongKind(f"need an inverted set, got {X.kind}")
    G = X.group
    what = f"commuting_certificate on {G.label}"
    return _certify_pair(X, _index(a, G.order, what), _index(b, G.order, what))


def engel_pair_certificate(X, a, b):
    """Least witness x of the eight-translate intersection, or None.

    A witness forces [a, b, b] = identity (via the cube law in the
    order-3 extension), which is re-verified; X must be a splitting set.
    """
    if X.kind != "splitting":
        raise WrongKind(f"need a splitting set, got {X.kind}")
    G = X.group
    what = f"engel_pair_certificate on {G.label}"
    return _certify_pair(X, _index(a, G.order, what), _index(b, G.order, what))


# -- extraction ------------------------------------------------------------------


# a tuple, not a record: proof mode builds |P|^2 of them, a row at a time in C
PairCertificate = namedtuple("PairCertificate", "a b witness")


@_record
class ModeResult:
    mode: str  # "proof-following" | "direct-search"
    subgroup: Subgroup
    seed_set: tuple = ()
    certificates: tuple = ()


@_record
class ExtractionReport:
    """Outcome of a normal abelian / 2-Engel subgroup extraction."""

    group: object
    kind: str  # "abelian" | "two-engel"
    word_set: WordSet
    requested_mode: str
    result: Subgroup
    result_mode: str
    verified_normal: bool
    verified_law: bool
    proof_following: ModeResult | None = None
    direct_search: ModeResult | None = None
    proof_reached_maximum: bool | None = None
    coset_witness: CosetWitness | None = None
    slice_subgroup: Subgroup | None = None
    findings: tuple = ()


def _next_levels(G, letters, new, levels):
    """Levels of the letters V + N from the levels of V: ``levels[k-1]``
    is P_k(V), the products of at most k letters of V, which holds the
    identity.  A product of k letters of V + N that uses a letter of N
    ends in one, or is such a product of k-1 letters times a letter of V,
    so P_k(V + N) = P_k(V) | Q_k with Q_1 = N and
    Q_k = Q_{k-1}(V + N) | P_{k-1}(V)N."""
    t = G._table
    right = operator.itemgetter(*letters, *new)  # V + N holds e and x, so two or more
    q = set(new)
    out = [levels[0] | q]
    for below, level in zip(levels, levels[1:]):
        grown = {t[p][n] for p in below for n in new}
        for p in q:
            grown.update(right(t[p]))
        q = grown
        out.append(level | q)
    return out


def _grow_seed_set(G, word_set, law_holds, length):
    """Greedy symmetric growth of V in least-index order; returns V, the
    certificates of all pairs of its products and the subgroup it
    generates.

    A candidate x joins V only if the subgroup generated by V and x still
    satisfies the target law and every pair from the products of at most
    ``length`` letters of the enlarged V admits a certificate; the direct
    law check replaces the nonconstructive product-length bound that
    would otherwise be needed to propagate the certificates to the whole
    subgroup.  The law must pass to subgroups, as the abelian and 2-Engel
    laws do.

    V starts as {e}, whose one pair (e, e) is certified like every other
    (``_certify_row``).  From then on the pairs of V's products are all
    certified, and each trial does only the work that is new since the
    last accepted V:

    * it extends the subgroup A that V generates by x a coset at a time,
      which leaves A as it is when x is already inside; many trials
      generate the same subgroup, so the law is checked once per subgroup;
    * when <A, x> fails the law, the double cosets A x^k A with k prime
      to the order of x are skipped (``lattice._double_coset_marker``):
      for each such x' and each later A' >= A, <A', x'> holds <A, x>;
    * it builds the products level by level from V's (``_next_levels``),
      at most |G| levels, since once two levels agree all later ones do;
    * it walks, in (a, b) order, only the pairs with a product outside
      V's, a row at a time (``_certify_row``), reading X's one table per
      subset, built on first use (``Subset.translates``); every witness is
      kept, so no pair is certified twice.
    """
    e = G.identity
    witnesses = {e: {}}  # a -> {b: witness of (a, b)}
    _certify_row(word_set, e, (e,), witnesses[e])
    members = {e}
    levels = [{e}] * min(length, G.order)
    accepted = Subgroup._trusted(G, [e])
    law_cache = {}
    doomed = bytearray(G.order)
    mark = None  # marks doomed double cosets of accepted, made on first use
    for x in G.elements():
        if x in members or doomed[x]:
            continue
        H = _extend(accepted, x)
        if H.members not in law_cache:
            law_cache[H.members] = law_holds(H)
        if not law_cache[H.members]:
            mark = mark or _double_coset_marker(accepted, doomed)
            mark(x)
            continue
        new = {x, G.inv(x)}
        grown = _next_levels(G, members, new, levels)
        certified = levels[-1]
        products = sorted(grown[-1])
        fresh = [b for b in products if b not in certified]
        if not fresh or all(
            _certify_row(
                word_set, a, fresh if a in certified else products, witnesses.setdefault(a, {})
            )
            for a in products
        ):
            members |= new
            levels = grown
            if H.size > accepted.size:
                accepted, mark = H, None
    products = sorted(levels[-1])
    # built in C: tuple.__new__ is how a namedtuple makes itself
    certificates = tuple(
        chain.from_iterable(
            map(
                tuple.__new__,
                repeat(PairCertificate),
                zip(repeat(a), products, map(witnesses[a].__getitem__, products)),
            )
            for a in products
        )
    )
    return tuple(sorted(members)), certificates, accepted


def _best_coset_slice(G, X, K):
    """Coset of K with maximum overlap with X, its least X-element t,
    and the slice {a in K : t*a in X}, which is K & t^-1 X.

    Cosets are taken in order of their least element and a tie keeps the
    earlier one.  The overlap |rK & X| = |K & r^-1 X| is the same for
    every r in a coset, so the least r with the largest overlap is the
    least element of the winning coset."""
    shifted = X.subset.translates()
    k = Subset.from_indices(G, K.members).bits
    overlaps = [(k & shifted[G.inv(r)]).bit_count() for r in G.elements()]
    rep = overlaps.index(max(overlaps))
    # rK & X is rep * (K & rep^-1 X)
    t = min(map(G._table[rep].__getitem__, Subset(G, k & shifted[G.inv(rep)]).indices()))
    return t, Subset(G, k & shifted[G.inv(t)]).indices()


def _subgroup_is_2engel(H):
    return is_2engel(H).holds


def _extract(G, aut, kind, mode, length, limit):
    """Run the requested modes on the word set of ``aut``.

    Direct mode asks the lattice for the largest normal subgroup with the
    law; past the lattice's order cap ``limit`` its SearchBudgetExceeded
    propagates in direct mode, and is recorded as a finding in ``both``.
    """
    if kind == "abelian":
        word = inverted_set(G, aut)
        law = lambda H: H.is_abelian()
    else:
        word = splitting_set(G, aut)
        law = _subgroup_is_2engel
    if mode not in ("proof", "direct", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    if length < 1:
        raise ValueError("length must be >= 1")

    proof_result = None
    direct_result = None
    findings = []

    if mode in ("proof", "both"):
        seed, certificates, generated = _grow_seed_set(G, word, law, length)
        core = normal_core(G, generated)
        proof_result = ModeResult(
            mode="proof-following",
            subgroup=core,
            seed_set=seed,
            certificates=certificates,
        )
    if mode in ("direct", "both"):
        try:
            best = maximal_subgroup_satisfying(
                G, lambda H: H.is_normal() and law(H), limit
            )
        except SearchBudgetExceeded as exc:
            if mode == "direct":
                raise
            findings.append(f"direct search skipped: {exc}")
        else:
            direct_result = ModeResult(mode="direct-search", subgroup=best)

    headline = direct_result or proof_result
    result = headline.subgroup
    reached = None
    if proof_result and direct_result:
        reached = proof_result.subgroup.size == direct_result.subgroup.size
    verified_normal = result.is_normal()
    verified_law = bool(law(result))

    witness = None
    slice_subgroup = None
    if kind == "abelian":
        t, slice_members = _best_coset_slice(G, word, result)
        # K abelian, t in X: phi(a) = t a^-1 t^-1 on the slice, so it is closed
        slice_subgroup = generate_subgroup(G, slice_members)
        if slice_subgroup.members != tuple(slice_members):
            raise SoundnessError(
                f"{G.label}: slice at t={t} is not a subgroup (members {slice_members})"
            )
        witness = CosetWitness(group=G, subgroup=slice_subgroup, t=t, target=word)
    return ExtractionReport(
        group=G,
        kind=kind,
        word_set=word,
        requested_mode=mode,
        result=result,
        result_mode=headline.mode,
        verified_normal=verified_normal,
        verified_law=verified_law,
        proof_following=proof_result,
        direct_search=direct_result,
        proof_reached_maximum=reached,
        coset_witness=witness,
        slice_subgroup=slice_subgroup,
        findings=tuple(findings),
    )


def extract_abelian_subgroup(
    G, aut, mode="both", length=DEFAULT_PRODUCT_LENGTH, limit=SUBGROUP_SCAN_LIMIT
):
    """Produce a normal abelian subgroup from an inverted set.

    proof mode grows a symmetric seed set whose bounded products all
    admit commuting certificates; direct mode asks the subgroup lattice
    (``maximal_subgroup_satisfying``, with order cap ``limit``) for the
    maximal normal abelian subgroup.  The report also carries a coset
    witness: the best coset tK of the result and the slice
    {a in K : t*a in X}, which is a subgroup because K is abelian; that
    is re-checked, and SoundnessError raised if it fails.
    """
    return _extract(G, aut, "abelian", mode, length, limit)


def extract_engel_subgroup(
    G, aut, mode="both", length=DEFAULT_PRODUCT_LENGTH, limit=SUBGROUP_SCAN_LIMIT
):
    """Produce a normal 2-Engel subgroup from a splitting set.

    Modes as in extract_abelian_subgroup, with eight-translate
    certificates; when both modes run the report records whether the
    proof-following result reached the direct-search maximum.
    """
    return _extract(G, aut, "two-engel", mode, length, limit)
