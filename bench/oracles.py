"""Computations made apart from finhaar, used to check its outputs.

Everything here works on plain Cayley tables (lists of lists, index
``table[i][j]`` = i*j) that the benchmark builds itself, or on closed
forms from group theory.  Nothing imports finhaar, and nothing compares
against a saved copy of an earlier output.
"""

from __future__ import annotations

import itertools
from collections import deque

# -- tables --------------------------------------------------------------------


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(m):
    """D_2m with index j*m + i standing for r^i s^j (s r^k = r^-k s)."""
    table = [[0] * (2 * m) for _ in range(2 * m)]
    for j in range(2):
        for i in range(m):
            row = table[j * m + i]
            for l in range(2):
                for k in range(m):
                    rot = (i + k) % m if j == 0 else (i - k) % m
                    row[l * m + k] = ((j + l) % 2) * m + rot
    return table


def perm_closure(degree, gens):
    """Breadth-first closure of permutation generators.

    Index 0 is the identity; later indices follow queue order with the
    generators applied in input order, and i*j applies j first.
    Returns (perms, table).
    """
    gens = [tuple(g) for g in gens]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    queue = deque(elems)
    while queue:
        current = queue.popleft()
        for g in gens:
            new = tuple(current[g[x]] for x in range(degree))
            if new not in index:
                index[new] = len(elems)
                elems.append(new)
                queue.append(new)
    table = [
        [index[tuple(p[q[x]] for x in range(degree))] for q in elems] for p in elems
    ]
    return elems, table


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x for x in range(n)):
            return e
    raise ValueError("no identity")


def inverses(table):
    e = identity_of(table)
    return [row.index(e) for row in table]


def power(table, e, x, k):
    acc = e
    for _ in range(k):
        acc = table[acc][x]
    return acc


def torsion(table, k):
    """Indices x with x^k = 1."""
    e = identity_of(table)
    return {x for x in range(len(table)) if power(table, e, x, k) == e}


def commutator(table, inv, a, b):
    return table[table[table[inv[a]][inv[b]]][a]][b]


# -- subgroups -----------------------------------------------------------------


def closure(table, gens, e):
    """Subgroup generated by ``gens``: right multiplication by the
    generators alone closes a subset of a finite group."""
    members = {e}
    todo = [e]
    while todo:
        x = todo.pop()
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in members:
                members.add(y)
                todo.append(y)
    return frozenset(members)


def all_subgroups(table):
    """Every subgroup, by cyclic extension: extend each known subgroup's
    generators by one element outside it until nothing new appears."""
    e = identity_of(table)
    n = len(table)
    known = {frozenset([e]): ()}
    frontier = []
    for g in range(n):
        H = closure(table, [g], e)
        if H not in known:
            known[H] = (g,)
            frontier.append(H)
    while frontier:
        grown = []
        for H in frontier:
            gens = known[H]
            for g in range(n):
                if g in H:
                    continue
                K = closure(table, gens + (g,), e)
                if K not in known:
                    known[K] = gens + (g,)
                    grown.append(K)
        frontier = grown
    return set(known)


def is_subgroup(table, members):
    ms = set(members)
    return all(table[a][b] in ms for a in ms for b in ms)


def is_normal(table, inv, members):
    ms = set(members)
    return all(table[table[g][h]][inv[g]] in ms for g in range(len(table)) for h in ms)


def is_abelian_on(table, members):
    return all(table[a][b] == table[b][a] for a in members for b in members)


def is_2engel_on(table, inv, members):
    e = identity_of(table)
    return all(
        commutator(table, inv, commutator(table, inv, a, b), b) == e
        for a in members
        for b in members
    )


def lower_central_series(table, inv):
    """G = γ1 ⊇ γ2 ⊇ ... with γ(i+1) generated by the commutators [x, g],
    x in γi, g in G, until a term repeats; a list of frozensets."""
    e = identity_of(table)
    n = len(table)
    terms = [frozenset(range(n))]
    while True:
        gens = {commutator(table, inv, x, g) for x in terms[-1] for g in range(n)}
        term = closure(table, sorted(gens), e)
        if term == terms[-1]:
            return terms
        terms.append(term)


def left_translate(table, x, members):
    return {table[x][a] for a in members}


def certificate_valid(table, base, u_members, k):
    """Every k-tuple from U (with repetition) leaves base ∩ u1·base ∩ ...
    nonempty, U holds the identity and is closed under inverses."""
    inv = inverses(table)
    e = identity_of(table)
    us = sorted(set(u_members))
    if e not in us or any(inv[u] not in us for u in us):
        return False
    masks = {u: left_translate(table, u, base) for u in us}
    for tup in itertools.combinations_with_replacement(us, k):
        acc = set(base)
        for u in tup:
            acc &= masks[u]
        if not acc:
            return False
    return True


# -- closed forms and outside references ---------------------------------------


def tau(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def subgroup_count_closed_form(kind, n):
    """Number of subgroups: Z_n has tau(n); D_2n has tau(n) + sigma(n);
    Q8 has 6, S4 30, A5 59; the Heisenberg group of order p^3 has
    1 + (p^3 - 1)/(p - 1) + (p + 1) + 1; the Frobenius group 7:3 has 10."""
    if kind == "cyclic":
        return tau(n)
    if kind == "dihedral":
        return tau(n) + sigma(n)
    if kind == "heisenberg":
        return 1 + (n**3 - 1) // (n - 1) + (n + 1) + 1
    return {"Q8": 6, "S4": 30, "A5": 59, "F21": 10}[kind]


def dihedral_lcs_sizes(m):
    """Lower central series sizes of D_2m for m a power of two:
    2m, then <r^2>, <r^4>, ... down to 1."""
    sizes = [2 * m]
    k = m // 2
    while k >= 1:
        sizes.append(k)
        k //= 2
    return sizes


def perm_power_count(degree, k, even_only=False):
    """Permutations of 0..degree-1 (even ones only if asked) with p^k = 1."""
    count = 0
    ident = tuple(range(degree))
    for p in itertools.permutations(range(degree)):
        if even_only and _parity(p):
            continue
        q = ident
        for _ in range(k):
            q = tuple(p[x] for x in q)
        if q == ident:
            count += 1
    return count


def _parity(p):
    seen, odd = set(), 0
    for start in range(len(p)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        odd += (length - 1) % 2
    return odd % 2


def sympy_order_and_lcs(degree, gens):
    """(order, lower central series sizes) from sympy's PermutationGroup."""
    from sympy.combinatorics import Permutation, PermutationGroup

    G = PermutationGroup([Permutation(list(g), size=degree) for g in gens])
    return G.order(), [H.order() for H in G.lower_central_series()]


def product_mean(table, values, xs):
    """Mean over g of prod_i f_i(x_i^-1 g), in plain Python complex."""
    inv = inverses(table)
    n = len(table)
    total = 0j
    for g in range(n):
        acc = 1 + 0j
        for f, x in zip(values, xs):
            acc *= f[table[inv[x]][g]]
        total += acc
    return total / n
