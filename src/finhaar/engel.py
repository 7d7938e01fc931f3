"""Commutator laws: the 2-Engel test, lower central series, cube-law checks.

The 2-Engel test and the lower central series work from generators and
conjugacy classes (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005): H is 2-Engel exactly when each of its conjugacy
classes is a commuting set, and each term of the series is a normal
closure of commutators of generators.  A failing 2-Engel test falls
back to the least-index pair scan, so its counterexample and count are
those of the scan.  The two ``verify_*`` checks test the paper's lemma
and its consequences, so they stay exhaustive over all |G|^3 triples;
they only intersect translates once per row and read commutators from
a table.

Convention: [a, b] = a^-1 b^-1 a b, and higher commutators are left
normed, [a, b, c] = [[a, b], c].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, GroupMismatch, SoundnessError
from .groups import Subgroup, as_subgroup, conjugacy_classes, normal_closure
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
    G = a.group
    for other in (b, *rest):
        if other.group is not G:
            raise GroupMismatch("elements of different groups")
    return G.element(left_normed_idx(G, a.idx, b.idx, *(c.idx for c in rest)))


@dataclass(frozen=True)
class CommutatorReport:
    group: object
    law: str
    counterexample: Optional[tuple]
    triples_checked: int
    qualifying_triples: Optional[int] = None
    nilpotency_class: Optional[int] = None
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


@dataclass(frozen=True)
class CentralSeries:
    group: object
    terms: tuple
    stabilized: bool
    nilpotency_class: Optional[int]


def lower_central_series(G, support=None):
    """Lower central series of G (or of the subgroup H with members
    ``support``).

    Each term is the normal closure in H of the commutators [s, t] of a
    generator s of H and a generator t of the term before, which is the
    commutator subgroup of H and that term.  Terms descend until they
    stabilize; the class is defined only when the series reaches the
    trivial subgroup.
    """
    H = as_subgroup(G if support is None else Subgroup(G, support))
    terms = [H]
    while terms[-1].size > 1:
        last = terms[-1]
        nxt = normal_closure(
            H, [commutator_idx(G, s, t) for s in H.generators for t in last.generators]
        )
        if nxt.members == last.members:
            break
        terms.append(nxt)
    stabilized = True
    cls = len(terms) - 1 if terms[-1].size == 1 else None
    return CentralSeries(
        group=G, terms=tuple(terms), stabilized=stabilized, nilpotency_class=cls
    )


def verify_cube_law(G, max_order=DEFAULT_TRIPLE_SCAN_LIMIT):
    """Exhaustively confirm: eight cube conditions force [a, b, b] = 1.

    For every pair (a, b) the qualifying x form an eight-fold translate
    intersection of the cube-root set, so all |G|^3 triples are covered
    exactly.  The three translates that depend only on a are intersected
    once per row, and a row or a pair whose intersection is already
    empty is skipped, since it has no qualifying x.  A counterexample
    would be a genuine finding and is reported, never swallowed.
    """
    n = G.order
    if n > max_order:
        raise BudgetExceeded(
            f"{G.label}: cube-law scan capped at order {max_order} (|G| = {n})"
        )
    e = G.identity
    t, inv = G._table, G._inv
    cube_roots = Subset.from_predicate(G, lambda g: G.power(g, 3) == e)
    # translated[c] holds the x with (c^-1 x)^3 = 1
    translated = [cube_roots.left_translate(c).bits for c in G.elements()]
    qualifying = 0
    counterexample = None
    for a, row in enumerate(t):
        inv_a = inv[a]
        row_xs = cube_roots.bits & translated[a] & translated[inv_a]
        if not row_xs:
            continue
        for b, inv_b in enumerate(inv):
            xs = row_xs & translated[inv_b]
            if not xs:
                continue
            ab = row[b]
            xs &= (
                translated[row[inv_b]]
                & translated[t[b][inv_a]]
                & translated[ab]
                & translated[inv[ab]]
            )
            if not xs:
                continue
            qualifying += xs.bit_count()
            if counterexample is None and left_normed_idx(G, a, b, b) != e:
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

    The swap law is checked on all |H|^3 triples, in least-index order,
    from a table of the commutators of H: [x,y,z][x,z,y] = 1 exactly
    when [[x,y],z] = [y,[x,z]].  Reports not-applicable when the subject
    is not 2-Engel, and raises SoundnessError, naming the class, when a
    2-Engel subject's class is not at most 3.
    """
    H = as_subgroup(H)
    G, members = H.group, H.members
    if len(members) > max_order:
        raise BudgetExceeded(
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
    cls = lower_central_series(G, support=members).nilpotency_class
    if cls is None or cls > 3:
        raise SoundnessError(
            f"{G.label}: 2-Engel subject has nilpotency class {cls}, "
            "but a 2-Engel group has class at most 3"
        )
    # comm[i][j] is the position in members of [members[i], members[j]]
    position = {x: i for i, x in enumerate(members)}
    comm = [[position[commutator_idx(G, x, y)] for y in members] for x in members]
    checked = 0
    for i, comm_x in enumerate(comm):
        for j, comm_y in enumerate(comm):
            lhs = comm[comm_x[j]]
            rhs = [comm_y[xz] for xz in comm_x]
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
    return CommutatorReport(
        group=G,
        law="jacobi-swap",
        counterexample=None,
        triples_checked=checked,
        nilpotency_class=cls,
    )
