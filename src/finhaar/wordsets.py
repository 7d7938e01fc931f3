"""Word-defined subsets and the constructive subgroup extractions.

Three families of sets are supported: solutions of x^n = 1 (torsion),
elements inverted by an automorphism, and the splitting set of an
order-dividing-3 automorphism.  On top of them sit the translate
intersection certificates and the two extraction procedures that
produce a normal abelian (resp. 2-Engel) subgroup together with the
evidence used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .engel import is_2engel, left_normed_idx
from .errors import (
    EmptyTarget,
    OrderNotDividing3,
    SearchBudgetExceeded,
    SoundnessError,
    WrongKind,
)
from .groups import Subgroup, generate_subgroup, normal_core
from .lattice import SUBGROUP_SCAN_LIMIT, all_subgroups, maximal_subgroup_satisfying
from .measure import Subset

DEFAULT_PRODUCT_LENGTH = 2


@dataclass(frozen=True)
class WordSet:
    """A word-defined subset together with its defining data."""

    group: object
    kind: str  # "torsion" | "inverted" | "splitting"
    subset: Subset
    exponent: Optional[int] = None
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


@dataclass(frozen=True)
class CosetWitness:
    """A subgroup H and an element t with the whole coset tH inside the target.

    ``fallback`` says why the trivial witness was returned without a
    search; it is None for a searched witness.
    """

    group: object
    subgroup: Subgroup
    t: int
    target: WordSet
    fallback: Optional[str] = None

    def validate(self):
        G = self.group
        bits = self.target.subset.bits
        return all(
            bits >> G.mul(self.t, h) & 1 for h in self.subgroup.members
        )


def coset_witness(X, limit=SUBGROUP_SCAN_LIMIT):
    """Largest subgroup H admitting a coset tH inside X.

    Scans the whole subgroup lattice (group order capped by ``limit``;
    beyond the cap the always-valid fallback ({identity}, least element
    of X) is returned, marked with its reason).  Ties break to the lexicographically smallest
    member tuple, then the least t.
    """
    G = X.group
    if X.subset.size == 0:
        raise EmptyTarget(f"{G.label}: word set {X.spec_string()} is empty")
    target_bits = X.subset.bits
    members_of_x = X.subset.indices()
    if G.order > limit:
        return CosetWitness(
            group=G,
            subgroup=Subgroup(G, [G.identity]),
            t=members_of_x[0],
            target=X,
            fallback=f"subgroup scan capped at order {limit}",
        )
    ranked = sorted(all_subgroups(G, limit), key=lambda s: (-s.size, s.members))
    for H in ranked:
        for t in members_of_x:
            if all(target_bits >> G.mul(t, h) & 1 for h in H.members):
                return CosetWitness(group=G, subgroup=H, t=t, target=X)
    raise SoundnessError("trivial subgroup witness should always exist")


# -- pair certificates ----------------------------------------------------------


def _least_bit(mask):
    return (mask & -mask).bit_length() - 1


def commuting_certificate(X, a, b):
    """Least witness x of the four-translate intersection, or None.

    A witness forces [a, b] = identity, which is re-verified; X must be
    an inverted set.
    """
    if X.kind != "inverted":
        raise WrongKind(f"need an inverted set, got {X.kind}")
    G, A = X.group, X.subset
    ab = G.mul(a, b)
    mask = A.bits
    for c in (G.inv(b), G.inv(a), G.inv(ab)):
        mask &= A.left_translate(c).bits
    if not mask:
        return None
    witness = _least_bit(mask)
    if left_normed_idx(G, a, b) != G.identity:
        raise SoundnessError(
            f"{G.label}: witness {witness} found but [{a},{b}] != 1"
        )
    return witness


def engel_pair_certificate(X, a, b):
    """Least witness x of the eight-translate intersection, or None.

    A witness forces [a, b, b] = identity (via the cube law in the
    order-3 extension), which is re-verified; X must be a splitting set.
    """
    if X.kind != "splitting":
        raise WrongKind(f"need a splitting set, got {X.kind}")
    G, A = X.group, X.subset
    inv_a, inv_b = G.inv(a), G.inv(b)
    ab = G.mul(a, b)
    mask = A.bits
    for c in (inv_b, a, inv_a, G.mul(a, inv_b), G.mul(b, inv_a), ab, G.inv(ab)):
        mask &= A.left_translate(c).bits
    if not mask:
        return None
    witness = _least_bit(mask)
    if left_normed_idx(G, a, b, b) != G.identity:
        raise SoundnessError(
            f"{G.label}: witness {witness} found but [{a},{b},{b}] != 1"
        )
    return witness


# -- extraction ------------------------------------------------------------------


@dataclass(frozen=True)
class PairCertificate:
    a: int
    b: int
    witness: int


@dataclass(frozen=True)
class ModeResult:
    mode: str  # "proof-following" | "direct-search"
    subgroup: Subgroup
    seed_set: tuple = ()
    certificates: tuple = ()


@dataclass(frozen=True)
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
    proof_following: Optional[ModeResult] = None
    direct_search: Optional[ModeResult] = None
    proof_reached_maximum: Optional[bool] = None
    coset_witness: Optional[CosetWitness] = None
    slice_subgroup: Optional[Subgroup] = None
    findings: tuple = field(default=())


def _products_up_to(G, seed, length):
    current = set(seed)
    out = set(seed)
    for _ in range(length - 1):
        current = {G.mul(p, v) for p in current for v in seed}
        out |= current
    return sorted(out)


def _grow_seed_set(G, word_set, cert_fn, law_holds, length):
    """Greedy symmetric growth of V in least-index order.

    A candidate joins V only if every pair from the bounded products of
    the enlarged V admits a certificate and the generated subgroup still
    satisfies the target law; the direct law check replaces the
    nonconstructive product-length bound that would otherwise be needed
    to propagate the certificates to the whole subgroup.  Many trials
    generate the same subgroup, so the law is checked once per subgroup.
    The pairs of products of the last accepted V are all certified, so a
    trial walks, in the same (a, b) order, only the pairs with a product
    outside them.
    """
    e = G.identity
    members = {e}
    cert_cache = {}
    law_cache = {}

    def certified(a, b):
        key = (a, b)
        if key not in cert_cache:
            cert_cache[key] = cert_fn(word_set, a, b)
        return cert_cache[key]

    def lawful(H):
        if H.members not in law_cache:
            law_cache[H.members] = law_holds(H)
        return law_cache[H.members]

    accepted = set()  # products of the last accepted V; none before the first
    for x in G.elements():
        if x in members:
            continue
        trial = members | {x, G.inv(x)}
        if not lawful(generate_subgroup(G, sorted(trial))):
            continue
        products = _products_up_to(G, sorted(trial), length)
        fresh = [b for b in products if b not in accepted]
        if all(
            certified(a, b) is not None
            for a in products
            for b in (fresh if a in accepted else products)
        ):
            members, accepted = trial, set(products)
    seed = tuple(sorted(members))
    products = _products_up_to(G, seed, length)
    certificates = tuple(
        PairCertificate(a, b, certified(a, b))
        for a in products
        for b in products
    )
    return seed, certificates


def _best_coset_slice(G, X, K):
    """Coset of K with maximum overlap with X, its least X-element t,
    and the slice {a in K : t*a in X}."""
    target = X.subset.bits
    seen = set()
    best = None  # (overlap, coset rep, least t in overlap)
    for rep in G.elements():
        if rep in seen:
            continue
        coset = [G.mul(rep, h) for h in K.members]
        seen.update(coset)
        inside = sorted(c for c in coset if target >> c & 1)
        if not inside:
            continue
        if best is None or len(inside) > best[0]:
            best = (len(inside), rep, inside[0])
    _, _, t = best
    slice_members = [a for a in K.members if target >> G.mul(t, a) & 1]
    return t, slice_members


def _subgroup_is_2engel(H):
    return is_2engel(H).holds


def _extract(G, aut, kind, mode, length, limit, min_measure):
    if kind == "abelian":
        word = inverted_set(G, aut)
        cert_fn = commuting_certificate
        law = lambda H: H.is_abelian()
    else:
        word = splitting_set(G, aut)
        cert_fn = engel_pair_certificate
        law = _subgroup_is_2engel
    if word.subset.size == 0 or word.measure <= min_measure:
        raise EmptyTarget(
            f"{G.label}: {word.spec_string()} has measure {word.measure}, "
            f"not above {min_measure}"
        )
    if mode not in ("proof", "direct", "both"):
        raise ValueError(f"unknown mode {mode!r}")

    proof_result = None
    direct_result = None
    findings = []

    if mode in ("proof", "both"):
        seed, certificates = _grow_seed_set(G, word, cert_fn, law, length)
        core = normal_core(G, generate_subgroup(G, seed))
        proof_result = ModeResult(
            mode="proof-following",
            subgroup=core,
            seed_set=seed,
            certificates=certificates,
        )
    if mode in ("direct", "both"):
        if G.order > limit:
            if mode == "direct":
                raise SearchBudgetExceeded(
                    f"{G.label}: direct search capped at order {limit}"
                )
            findings.append(f"direct search skipped: order {G.order} > {limit}")
        else:
            best = maximal_subgroup_satisfying(
                G, lambda H: H.is_normal() and law(H), limit
            )
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
        if generate_subgroup(G, slice_members).members == tuple(slice_members):
            slice_subgroup = Subgroup(G, slice_members)
            witness = CosetWitness(
                group=G, subgroup=slice_subgroup, t=t, target=word
            )
        else:
            findings.append(
                f"slice at t={t} is not a subgroup (members {slice_members})"
            )
            witness = CosetWitness(
                group=G,
                subgroup=Subgroup(G, [G.identity]),
                t=word.subset.indices()[0],
                target=word,
            )
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
    G,
    aut,
    mode="both",
    length=DEFAULT_PRODUCT_LENGTH,
    limit=SUBGROUP_SCAN_LIMIT,
    min_measure=0,
):
    """Produce a normal abelian subgroup from an inverted set.

    proof mode grows a symmetric seed set whose bounded products all
    admit commuting certificates; direct mode scans the subgroup lattice
    for the maximal normal abelian subgroup.  The report also carries a
    coset witness: the best coset tK of the result and the slice
    {a in K : t*a in X}, which is verified (not assumed) to be a
    subgroup.  ``min_measure`` restricts to word sets of measure
    strictly above the threshold (default: merely nonempty).
    """
    return _extract(G, aut, "abelian", mode, length, limit, min_measure)


def extract_engel_subgroup(
    G,
    aut,
    mode="both",
    length=DEFAULT_PRODUCT_LENGTH,
    limit=SUBGROUP_SCAN_LIMIT,
    min_measure=0,
):
    """Produce a normal 2-Engel subgroup from a splitting set.

    Modes as in extract_abelian_subgroup, with eight-translate
    certificates; when both modes run the report records whether the
    proof-following result reached the direct-search maximum.
    """
    return _extract(G, aut, "two-engel", mode, length, limit, min_measure)
