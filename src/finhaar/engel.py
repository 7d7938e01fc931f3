"""Commutator laws: the 2-Engel test, lower central series, cube-law checks.

The 2-Engel test and the lower central series work from generators and
conjugacy classes (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005): H is 2-Engel exactly when each of its conjugacy
classes is a commuting set, and each term of the series is a normal
closure of commutators of generators.  A failing 2-Engel test falls
back to the least-index pair scan, so its counterexample and count are
those of the scan.  The two ``verify_*`` checks test the paper's lemma
and its consequences, and their counts stay exact over all |G|^3
triples without a loop over them: the cube law counts its triples over
pairs (a, x), as R = {g : g^3 = 1} is closed under conjugation, so
Ry = yR and every condition on b is a translate of R; the swap law is
trilinear in class at most 3, so it is checked on generators, and all
triples are scanned only when it fails there.

Convention: [a, b] = a^-1 b^-1 a b, and higher commutators are left
normed, [a, b, c] = [[a, b], c].
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded, SoundnessError
from .groups import _one_group, _read_through, _record
from .lattice import as_subgroup, conjugacy_classes, normal_closure
from .measure import Subset

DEFAULT_TRIPLE_SCAN_LIMIT = 64


def commutator_idx(G, a, b):
    return G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b)


def left_normed_idx(G, a, b, *rest):
    acc = commutator_idx(G, a, b)
    for c in rest:
        acc = commutator_idx(G, acc, c)
    return acc


def commutator(a, b, *rest):
    """Left-normed commutator of group elements: [a, b], [a, b, c], ..."""
    G = _one_group((a, b, *rest), "elements of different groups")
    return G.element(left_normed_idx(G, a.idx, b.idx, *(c.idx for c in rest)))


@_record
class CommutatorReport:
    group: object
    law: str
    counterexample: tuple | None
    triples_checked: int
    qualifying_triples: int | None = None
    nilpotency_class: int | None = None
    applicable: bool = True

    @property
    def holds(self):
        return self.applicable and self.counterexample is None


def is_2engel(H):
    """Decide the law [a, b, b] = 1 on H by its conjugacy classes.

    [a, b, b] = 1 exactly when b commutes with a^-1 b a, so H is 2-Engel
    exactly when every conjugacy class of H is a commuting set; then
    ``triples_checked`` is |H|^2, the pairs the law covers.  When the law
    fails, the pairs are scanned in least-index order and the first
    counterexample is reported, with the number of pairs scanned up to it.
    """
    H = as_subgroup(H)
    G = H.group
    t = G._table
    if all(t[x][y] == t[y][x] for c in conjugacy_classes(H) for x in c for y in c):
        return CommutatorReport(
            group=G, law="two-engel", counterexample=None, triples_checked=H.size**2
        )
    e = G.identity
    checked = 0
    for a in H.members:
        for b in H.members:
            checked += 1
            if left_normed_idx(G, a, b, b) != e:
                return CommutatorReport(
                    group=G,
                    law="two-engel",
                    counterexample=(a, b),
                    triples_checked=checked,
                )
    raise AssertionError("a class that does not commute implies a counterexample")


@_record
class CentralSeries:
    group: object
    terms: tuple
    stabilized: bool
    nilpotency_class: int | None


def lower_central_series(H):
    """Lower central series of a FiniteGroup or Subgroup H.

    Each term is the normal closure in H of the commutators [s, t] of a
    generator s of H and a generator t of the term before, which is the
    commutator subgroup of H and that term.  Terms descend until they
    stabilize; the class is defined only when the series reaches the
    trivial subgroup.
    """
    H = as_subgroup(H)
    G = H.group
    terms = [H]
    while terms[-1].size > 1:
        last = terms[-1]
        nxt = normal_closure(
            H, [commutator_idx(G, s, t) for s in H.generators for t in last.generators]
        )
        if nxt.members == last.members:
            break
        terms.append(nxt)
    cls = len(terms) - 1 if terms[-1].size == 1 else None
    return CentralSeries(group=G, terms=tuple(terms), stabilized=True, nilpotency_class=cls)


def verify_cube_law(G, max_order=DEFAULT_TRIPLE_SCAN_LIMIT):
    """Confirm on all |G|^3 triples: eight cube conditions force [a, b, b] = 1.

    With R the cube roots of 1 and T[c] = cR, the qualifying x of a pair
    (a, b) form an eight-fold intersection of translates.  R is closed
    under inverses and conjugation, so Ry = yR, and each condition on b
    is a translate too: for x in R, T[a] and T[a^-1], the qualifying b
    are T[x^-1] & T[x^-1 a] & T[x a] & T[a^-1 x] & T[a^-1 x^-1].
    Summing their sizes over (a, x) counts the qualifying triples
    exactly, and their union over x is the set of pairs with a
    qualifying x, whose law is read in least-index order up to the
    first counterexample, reported with its least x.  A counterexample
    would be a genuine finding and is reported, never swallowed.  Raises
    SearchBudgetExceeded, naming the group, when |G| exceeds ``max_order``.
    """
    n = G.order
    if n > max_order:
        raise SearchBudgetExceeded(
            f"{G.label}: cube-law scan capped at order {max_order} (|G| = {n})"
        )
    e = G.identity
    t, inv = G._table, G._inv
    cube_roots = Subset.from_predicate(G, lambda g: G.power(g, 3) == e)
    # translated[c] holds the x with (c^-1 x)^3 = 1
    translated = cube_roots.translates()
    qualifying = 0
    counterexample = None
    for a, row in enumerate(t):
        inv_a = inv[a]
        row_xs = xs = cube_roots.bits & translated[a] & translated[inv_a]
        if not row_xs:
            continue
        left, bs = t[inv_a], 0
        while xs:
            x = (xs & -xs).bit_length() - 1
            xs &= xs - 1
            inv_x = inv[x]
            m = translated[inv_x] & translated[t[inv_x][a]] & translated[t[x][a]]
            m &= translated[left[x]] & translated[left[inv_x]]
            qualifying += m.bit_count()
            bs |= m
        while counterexample is None and bs:
            b = (bs & -bs).bit_length() - 1
            bs &= bs - 1
            if left_normed_idx(G, a, b, b) != e:
                inv_b, ab = inv[b], row[b]
                xs = row_xs & translated[inv_b] & translated[row[inv_b]]
                xs &= translated[t[b][inv_a]] & translated[ab] & translated[inv[ab]]
                counterexample = (a, b, (xs & -xs).bit_length() - 1)
    return CommutatorReport(
        group=G,
        law="lemma-2engel",
        counterexample=counterexample,
        triples_checked=n**3,
        qualifying_triples=qualifying,
    )


def verify_engel_consequences(H, max_order=DEFAULT_TRIPLE_SCAN_LIMIT):
    """On a 2-Engel subject, check class <= 3 and [x,y,z][x,z,y] = 1.

    In class at most 3, f(x,y,z) = [x,y,z][x,z,y] is trilinear with
    central values, so it vanishes on all |H|^3 triples exactly when it
    vanishes on the triples of generators; only when that check fails
    are all triples scanned, in least-index order, from a table of the
    commutators of H, to report the first failing triple and its count:
    f(x,y,z) = 1 exactly when [[x,y],z] = [y,[x,z]].  Reports
    not-applicable when the subject is not 2-Engel, and raises
    SoundnessError, naming the class, when a 2-Engel subject's class is
    not at most 3.  Raises SearchBudgetExceeded, naming the group, when
    |H| exceeds ``max_order``.
    """
    H = as_subgroup(H)
    G, members = H.group, H.members
    if len(members) > max_order:
        raise SearchBudgetExceeded(
            f"{G.label}: triple scan capped at order {max_order} (|H| = {len(members)})"
        )
    if not is_2engel(H).holds:
        return CommutatorReport(
            group=G,
            law="jacobi-swap",
            counterexample=None,
            triples_checked=0,
            applicable=False,
        )
    cls = lower_central_series(H).nilpotency_class
    if cls is None or cls > 3:
        raise SoundnessError(
            f"{G.label}: 2-Engel subject has nilpotency class {cls}, "
            "but a 2-Engel group has class at most 3"
        )
    gens, e = H.generators, G.identity
    if all(
        G.mul(left_normed_idx(G, x, y, z), left_normed_idx(G, x, z, y)) == e
        for x in gens
        for y in gens
        for z in gens
    ):
        return CommutatorReport(
            group=G,
            law="jacobi-swap",
            counterexample=None,
            triples_checked=len(members) ** 3,
            nilpotency_class=cls,
        )
    # comm[i][j] is the position in members of [members[i], members[j]]
    position = {x: i for i, x in enumerate(members)}
    comm = [[position[commutator_idx(G, x, y)] for y in members] for x in members]
    checked = 0
    for i, comm_x in enumerate(comm):
        through_x = _read_through(comm_x)
        for j, comm_y in enumerate(comm):
            lhs = comm[comm_x[j]]
            rhs = through_x(comm_y)
            if lhs != rhs:
                k = next(k for k, (l, r) in enumerate(zip(lhs, rhs)) if l != r)
                return CommutatorReport(
                    group=G,
                    law="jacobi-swap",
                    counterexample=(members[i], members[j], members[k]),
                    triples_checked=checked + k + 1,
                    nilpotency_class=cls,
                )
            checked += len(members)
    raise AssertionError("a failing generator triple implies a counterexample")
