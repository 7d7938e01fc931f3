"""Subgroup structure: conjugacy, normal closures and cores, and whole
subgroup lattices of small groups.

This module owns the subgroup-structure code that the lattice search,
seed growth (``wordsets``) and the commutator laws (``engel``) share.
Conjugacy classes, normal closures and the double cosets that the
lattice search and seed growth skip (``_double_coset_marker``) are
orbits of an index under index maps (``orbit``); ``normal_core``
intersects a subgroup with its conjugates until it is normal.

Enumeration starts from the trivial subgroup and repeatedly extends
known subgroups by one extra generator until nothing new appears, so the
first extensions are the cyclic subgroups: a subgroup H is extended by g
a coset of H at a time (``groups._extend``), never re-closed from its
generators (the cyclic-extension method; Neubueser 1960, Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005).  Extending H by
g, by any h1 * g * h2 with h1, h2 in H, and by any power g^k with k
prime to the order of g gives the same subgroup, so once H is extended
by g the double cosets H g^k H of all those powers are skipped
(``_double_coset_marker``, which seed growth shares).
Elements are tried in ascending order and everything skipped is larger
than g, so a skipped extension would only find again what g found: the
first closure that finds a subgroup is unchanged, and so are its
members and generators.  This is exhaustive and only intended for
desk-scale orders.

This module is the one owner of the subgroup searches' order cap
(``SUBGROUP_SCAN_LIMIT``, whose SearchBudgetExceeded names the group)
and of their ranking, largest subgroup first and then the least member
tuple: the coset witness and direct-mode extraction both ask
``maximal_subgroup_satisfying``.
"""

from __future__ import annotations

import math

from .errors import GroupMismatch, SearchBudgetExceeded
from .groups import FiniteGroup, Subgroup, _extend, _index_list, greedy_closure

SUBGROUP_SCAN_LIMIT = 200


def all_subgroups(G, limit=SUBGROUP_SCAN_LIMIT):
    """Every subgroup of G, sorted by (size, member tuple).

    Cached on the group.  Raises SearchBudgetExceeded above ``limit``.
    """
    if G.order > limit:
        raise SearchBudgetExceeded(
            f"{G.label}: subgroup enumeration capped at order {limit}"
        )
    cached = getattr(G, "_subgroups", None)
    if cached is not None:
        return cached
    trivial = Subgroup._trusted(G, [G.identity])
    known = {trivial.members: trivial}
    frontier = [trivial]
    while frontier:
        next_frontier = []
        for sub in frontier:
            done = bytearray(G.order)
            mark = _double_coset_marker(sub, done)
            mark(G.identity)  # H itself
            for g in G.elements():
                if done[g]:
                    continue
                bigger = _extend(sub, g)
                if bigger.members not in known:
                    known[bigger.members] = bigger
                    next_frontier.append(bigger)
                mark(g)
        frontier = next_frontier
    result = sorted(known.values(), key=lambda s: (s.size, s.members))
    G._subgroups = result
    return result


def normal_subgroups(G, limit=SUBGROUP_SCAN_LIMIT):
    return [H for H in all_subgroups(G, limit) if H.is_normal()]


def maximal_subgroup_satisfying(G, pred, limit=SUBGROUP_SCAN_LIMIT):
    """Largest subgroup satisfying ``pred``, or None: subgroups are tried
    in (-size, members) order, so size ties break to the least member
    tuple, and ``pred`` is not called past the first that satisfies it."""
    ranked = sorted(all_subgroups(G, limit), key=lambda s: (-s.size, s.members))
    return next((H for H in ranked if pred(H)), None)


# -- conjugacy, normal closures and double cosets ------------------------------


def as_subgroup(H):
    """A FiniteGroup as its whole subgroup, a Subgroup as itself; both
    record generators."""
    if isinstance(H, FiniteGroup):
        return Subgroup._trusted(H, H.elements(), H.generators)
    if not isinstance(H, Subgroup):
        raise TypeError(f"expected FiniteGroup or Subgroup, got {type(H)!r}")
    return H


def orbit(start, maps, seen):
    """Indices reachable from ``start`` by the index maps ``maps`` (lists
    or dicts), in breadth-first order.  Each is marked in the bytearray
    ``seen``; indices marked before are not entered.  For maps that are
    bijections (left or right multiplication, conjugation) this is the
    orbit of ``start`` under the group they generate."""
    seen[start] = 1
    out = [start]
    for x in out:
        for m in maps:
            y = m[x]
            if not seen[y]:
                seen[y] = 1
                out.append(y)
    return out


def _double_coset_marker(H, done):
    """A function mark(g) that marks in the bytearray ``done`` the double
    cosets H g^k H for k prime to the order of g: extending H by any of
    them gives <H, g>, because it holds g^k and so g.  HgH is the orbit
    of g under left and right multiplication by H's generators, and
    mark(identity) marks H itself."""
    G = H.group
    t = G._table
    shifts = [t[s] for s in H.generators] + [G.right_map(s) for s in H.generators]

    def mark(g):
        row, powers = t[g], [g]
        while powers[-1] != G.identity:
            powers.append(row[powers[-1]])
        for k, p in enumerate(powers, 1):
            if not done[p] and math.gcd(k, len(powers)) == 1:
                orbit(p, shifts, done)

    return mark


def _conjugations(G, gens, domain):
    """Index maps {x: s*x*s^-1 for x in domain}, one per s in ``gens``."""
    t, inv = G._table, G._inv
    return [{x: t[t[s][x]][inv[s]] for x in domain} for s in gens]


def conjugacy_classes(H):
    """Conjugacy classes of a FiniteGroup or Subgroup, each the orbit of
    its least member under conjugation by H's generators, in order of
    least member."""
    H = as_subgroup(H)
    maps = _conjugations(H.group, H.generators, H.members)
    seen = bytearray(H.group.order)
    return [tuple(sorted(orbit(x, maps, seen))) for x in H.members if not seen[x]]


def normal_closure(H, elements):
    """Smallest normal subgroup of H containing ``elements`` (members of
    H): the subgroup generated by their conjugacy classes in H."""
    H = as_subgroup(H)
    G = H.group
    elements = _index_list(elements, G.order, f"normal_closure on {G.label}")
    maps = _conjugations(G, H.generators, H.members)
    seen = bytearray(G.order)
    return greedy_closure(G, [y for x in elements if not seen[x] for y in orbit(x, maps, seen)])


def normal_core(G, H):
    """Intersection of all conjugates of H: the largest normal subgroup
    of G inside H.  Equals H exactly when H is normal.

    K <- K & sKs^-1 over the generators s of G until K stops changing:
    the core lies in every iterate, and the fixed point is normal.
    """
    if H.group is not G:
        raise GroupMismatch("subgroup belongs to a different group")
    maps = _conjugations(G, G.generators, H.members)  # every iterate lies in H
    core = set(H.members)
    changed = True
    while changed and len(core) > 1:
        changed = False
        for m in maps:
            kept = core.intersection([m[k] for k in core])
            if len(kept) < len(core):
                core, changed = kept, True
    return greedy_closure(G, sorted(core))
