"""Whole subgroup lattices of small groups.

Enumeration starts from the trivial subgroup and repeatedly extends
known subgroups by one extra generator until nothing new appears, so the
first extensions are the cyclic subgroups: a subgroup H is extended by g
a coset of H at a time (``groups._extend``), never re-closed from its
generators (the cyclic-extension method; Neubueser 1960, Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 2005).  Extending H by
g, by any h1 * g * h2 with h1, h2 in H, and by any power g^k with k
prime to the order of g gives the same subgroup, so once H is extended
by g the double cosets H g^k H of all those powers are skipped.
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

from .errors import SearchBudgetExceeded
from .groups import Subgroup, _extend, orbit

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
            # HgH is the orbit of g under left and right multiplication
            # by the generators of H
            shifts = [G.left_row(s) for s in sub.generators]
            shifts += [G.right_map(s) for s in sub.generators]
            done = bytearray(G.order)
            orbit(G.identity, shifts, done)  # H itself
            for g in G.elements():
                if done[g]:
                    continue
                bigger = _extend(sub, g)
                if bigger.members not in known:
                    known[bigger.members] = bigger
                    next_frontier.append(bigger)
                # <H, g^k> = <H, g> for k prime to the order of g
                powers = _powers(G, g)
                for k, p in enumerate(powers, 1):
                    if not done[p] and math.gcd(k, len(powers)) == 1:
                        orbit(p, shifts, done)
        frontier = next_frontier
    result = sorted(known.values(), key=lambda s: (s.size, s.members))
    G._subgroups = result
    return result


def _powers(G, g):
    """[g, g^2, ..., g^n], n the order of g."""
    row, out = G._table[g], [g]
    while out[-1] != G.identity:
        out.append(row[out[-1]])
    return out


def normal_subgroups(G, limit=SUBGROUP_SCAN_LIMIT):
    return [H for H in all_subgroups(G, limit) if H.is_normal()]


def maximal_subgroup_satisfying(G, pred, limit=SUBGROUP_SCAN_LIMIT):
    """Largest subgroup satisfying ``pred``, or None: subgroups are tried
    in (-size, members) order, so size ties break to the least member
    tuple, and ``pred`` is not called past the first that satisfies it."""
    ranked = sorted(all_subgroups(G, limit), key=lambda s: (-s.size, s.members))
    return next((H for H in ranked if pred(H)), None)
