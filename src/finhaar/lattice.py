"""Whole subgroup lattices of small groups.

Enumeration starts from the cyclic subgroups and repeatedly extends
known subgroups by one extra generator until nothing new appears: a
subgroup is extended by closing its own generators plus the new element,
never its whole member list (the cyclic-extension method; Neubueser
1960, Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005).  Extending H by g and by any h1 * g * h2 with h1, h2 in H gives
the same subgroup, so only the least element of each double coset HgH
is extended; the first closure that finds a subgroup is unchanged, and
so are its members and generators.  This is exhaustive and only
intended for the desk-scale orders the maximal searches are gated to.
"""

from __future__ import annotations

from .errors import SearchBudgetExceeded
from .groups import Subgroup, generate_subgroup

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
    known = {}

    def add(sub):
        if sub.members not in known:
            known[sub.members] = sub
            return True
        return False

    add(Subgroup(G, [G.identity]))
    frontier = []
    for g in G.elements():
        sub = generate_subgroup(G, [g])
        if add(sub):
            frontier.append(sub)
    while frontier:
        next_frontier = []
        for sub in frontier:
            if sub.size == G.order:
                continue
            done = bytearray(G.order)
            _mark_double_coset(G, sub.generators, G.identity, done)  # H itself
            for g in G.elements():
                if done[g]:
                    continue
                bigger = generate_subgroup(G, sub.generators + (g,))
                if add(bigger):
                    next_frontier.append(bigger)
                _mark_double_coset(G, sub.generators, g, done)
        frontier = next_frontier
    result = sorted(known.values(), key=lambda s: (s.size, s.members))
    G._subgroups = result
    return result


def _mark_double_coset(G, gens, g, done):
    """Set ``done`` on HgH, H generated by ``gens``: the orbit of g under
    left and right multiplication by the generators."""
    done[g] = 1
    orbit = [g]
    for x in orbit:
        row = G.left_row(x)
        for s in gens:
            for y in (G.mul(s, x), row[s]):
                if not done[y]:
                    done[y] = 1
                    orbit.append(y)


def normal_subgroups(G, limit=SUBGROUP_SCAN_LIMIT):
    return [H for H in all_subgroups(G, limit) if H.is_normal()]


def maximal_subgroup_satisfying(G, pred, limit=SUBGROUP_SCAN_LIMIT):
    """Largest subgroup satisfying ``pred``; size ties break to the
    lexicographically smallest member tuple.  Returns None if none do."""
    best = None
    for H in all_subgroups(G, limit):
        if not pred(H):
            continue
        if best is None or H.size > best.size:
            best = H
        # all_subgroups is sorted, so the first hit at each size is
        # already the lexicographically smallest one
    return best
