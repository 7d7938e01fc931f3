"""Commutator laws: 2-Engel scans, lower central series, cube-law checks.

Convention: [a, b] = a^-1 b^-1 a b, and higher commutators are left
normed, [a, b, c] = [[a, b], c].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, GroupMismatch
from .groups import FiniteGroup, Subgroup, generate_subgroup
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


def _subject(H):
    """(group, member indices) for either a FiniteGroup or a Subgroup."""
    if isinstance(H, FiniteGroup):
        return H, tuple(H.elements())
    if isinstance(H, Subgroup):
        return H.group, H.members
    raise TypeError(f"expected FiniteGroup or Subgroup, got {type(H)!r}")


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
    """Scan all pairs for the law [a, b, b] = 1.

    The first counterexample in least-index order is reported.
    """
    G, members = _subject(H)
    e = G.identity
    checked = 0
    for a in members:
        for b in members:
            checked += 1
            if left_normed_idx(G, a, b, b) != e:
                return CommutatorReport(
                    group=G,
                    law="two-engel",
                    counterexample=(a, b),
                    triples_checked=checked,
                )
    return CommutatorReport(
        group=G, law="two-engel", counterexample=None, triples_checked=checked
    )


@dataclass(frozen=True)
class CentralSeries:
    group: object
    terms: tuple
    stabilized: bool
    nilpotency_class: Optional[int]


def lower_central_series(G, support=None):
    """Lower central series of G (or of a subgroup given by ``support``).

    Terms descend until they stabilize; the class is defined only when
    the series reaches the trivial subgroup.
    """
    if support is None:
        support = tuple(G.elements())
    first = Subgroup(G, support)
    terms = [first]
    while True:
        last = terms[-1]
        if last.size == 1:
            break
        comms = {
            commutator_idx(G, g, h) for g in support for h in last.members
        }
        nxt = generate_subgroup(G, sorted(comms))
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
    exactly.  A counterexample would be a genuine finding and is
    reported, never swallowed.
    """
    n = G.order
    if n > max_order:
        raise BudgetExceeded(
            f"{G.label}: cube-law scan capped at order {max_order} (|G| = {n})"
        )
    e = G.identity
    cube_roots = Subset.from_predicate(G, lambda g: G.power(g, 3) == e)
    T = cube_roots.bits
    translated = [cube_roots.left_translate(c).bits for c in G.elements()]
    qualifying = 0
    counterexample = None
    for a in G.elements():
        inv_a = G.inv(a)
        for b in G.elements():
            inv_b = G.inv(b)
            ab = G.mul(a, b)
            xs = (
                T
                & translated[inv_b]
                & translated[a]
                & translated[inv_a]
                & translated[G.mul(a, inv_b)]
                & translated[G.mul(b, inv_a)]
                & translated[ab]
                & translated[G.inv(ab)]
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

    Reports not-applicable when the subject is not 2-Engel.
    """
    G, members = _subject(H)
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
    series = lower_central_series(G, support=members)
    cls = series.nilpotency_class
    if cls is None or cls > 3:
        return CommutatorReport(
            group=G,
            law="class-bound-3",
            counterexample=None,
            triples_checked=0,
            nilpotency_class=cls,
        )
    e = G.identity
    pair = {}
    for x in members:
        for y in members:
            pair[(x, y)] = commutator_idx(G, x, y)
    checked = 0
    for x in members:
        for y in members:
            cxy = pair[(x, y)]
            for z in members:
                checked += 1
                lhs = G.mul(commutator_idx(G, cxy, z), commutator_idx(G, pair[(x, z)], y))
                if lhs != e:
                    return CommutatorReport(
                        group=G,
                        law="jacobi-swap",
                        counterexample=(x, y, z),
                        triples_checked=checked,
                        nilpotency_class=cls,
                    )
    return CommutatorReport(
        group=G,
        law="jacobi-swap",
        counterexample=None,
        triples_checked=checked,
        nilpotency_class=cls,
    )
