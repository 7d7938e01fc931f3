"""Finite groups on integer element indices.

Every group keeps its full Cayley table as a list of lists, so ``mul``
and ``left_row`` are plain lookups.  A group is given either by that
table (table backend) or as a closure of permutations with
deterministic breadth-first indexing (permutation backend).  Both build
the table a whole row at a time with list operations that run in C:

* table backend: each given row is converted with ``int`` and
  range-checked once (``build_table_group``);
* permutation backend: the closure records each new element as p*g for
  an earlier element p and a generator g (a Schreier tree), and its row
  is the row of p read through the row of g, since (p*g)*x = p*(g*x).
  Only the generators' own rows are composed from permutations
  (``build_perm_group``).

Permutation closures stop at ``DEFAULT_CLOSURE_CAP`` = 4096 elements
unless a larger ``cap`` is passed: beyond that a dense table no longer
fits comfortably.  All heavy operations work on plain ``int`` indices;
the thin :class:`GroupElement` wrapper exists for ergonomic arithmetic.

Validation is exact at every order, with no sampling: associativity of
a given table by Light's test (Clifford and Preston 1961) and maps
between groups by ``check_homomorphism``, both on a greedy generating
set of at most log2(order) elements.  A table built from permutations
is associative by construction and is not tested.

Conjugacy classes, normal closures and the double cosets of the lattice
search are orbits of an index under index maps (``orbit``).

Groups, subgroups and automorphisms are immutable after construction and
safe to share between threads.  Lazily cached attributes only memoise
pure recomputations.
"""

from __future__ import annotations

import operator
from functools import reduce

from .errors import (
    CapExceeded,
    GroupMismatch,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotBijective,
    NotMultiplicative,
    OrderNotDividing3,
)

DEFAULT_CLOSURE_CAP = 4096


class FiniteGroup:
    """Immutable finite group with elements 0..order-1.

    ``mul`` and ``inv`` are total on indices; ``identity`` is the index
    of the neutral element.  ``backend`` is "table" or "permutation".
    ``generators`` adds, in index order, each element the closure so far
    misses; each one at least doubles the closure.

    ``table`` is a list of rows of ``int`` indices, kept as given; with
    ``perms``, ``perms[i]`` is the permutation of element i and the
    table is their composition.  Build groups with ``build_table_group``
    and ``build_perm_group``, which check their input and make the rows.
    """

    def __init__(self, label, table, perms=None):
        self.label = label
        self._table = table
        self.order = len(table)
        if perms is None:
            self.backend = "table"
            self._perms = None
            self._perm_index = None
        else:
            self.backend = "permutation"
            self._perms = perms
            self._perm_index = {p: i for i, p in enumerate(perms)}
        self.identity = self._find_identity()
        self._inv = self._find_inverses()
        self.generators = greedy_closure(self, range(self.order)).generators
        if perms is None:
            # a table built from permutations is associative by construction
            self._check_associativity()
        self._abelian = None
        self._subgroups = None

    # -- construction internals ------------------------------------------

    def _find_identity(self):
        t = self._table
        ident = list(range(self.order))
        for e, row in enumerate(t):
            if row == ident and all(r[e] == x for x, r in enumerate(t)):
                return e
        raise NoIdentity(f"{self.label}: no two-sided identity")

    def _find_inverses(self):
        """The least y with x*y = e = y*x, for each x: the first right
        inverse, unless it is not also a left one; then the whole row
        is scanned."""
        t, e = self._table, self.identity
        inv = []
        for x, row in enumerate(t):
            try:
                y = row.index(e)
            except ValueError:
                y = None
            if y is None or t[y][x] != e:
                y = next((y for y, xy in enumerate(row) if xy == e and t[y][x] == e), None)
                if y is None:
                    raise NoInverse(f"{self.label}: element {x} has no inverse")
            inv.append(y)
        return inv

    def _check_associativity(self):
        """Light's test: (x*g)*z == x*(g*z) for all x, z and each generator g;
        exact, because the g that pass are closed under products."""
        t = self._table
        for g in self.generators:
            through_g = _read_through(t[g])
            for x, row in enumerate(t):
                lhs, rhs = t[row[g]], through_g(row)
                if lhs != rhs:
                    z = next(z for z, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                    raise NotAssociative(f"{self.label}: ({x}*{g})*{z} != {x}*({g}*{z})")

    # -- arithmetic --------------------------------------------------------

    def mul(self, i, j):
        return self._table[i][j]

    def inv(self, i):
        return self._inv[i]

    def conjugate(self, g, x):
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self._inv[g])

    def power(self, g, n):
        """g**n by square and multiply; n may be negative or zero."""
        if n < 0:
            g, n = self._inv[g], -n
        acc, base = self.identity, g
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def element_order(self, g):
        k, x = 1, g
        while x != self.identity:
            x = self.mul(x, g)
            k += 1
        return k

    def left_row(self, x):
        """Row of the Cayley table: [x*g for g in elements], which is
        also the index map of left multiplication by x."""
        return self._table[x]

    def right_map(self, g):
        """Index map of right multiplication by g: [x*g for x in elements]."""
        return [row[g] for row in self._table]

    def is_abelian(self):
        if self._abelian is None:
            self._abelian = all(
                self.mul(x, y) == self.mul(y, x)
                for x in range(self.order)
                for y in range(x)
            )
        return self._abelian

    # -- conveniences -------------------------------------------------------

    def element(self, i):
        if not 0 <= i < self.order:
            raise IndexError(f"{self.label}: element index {i} out of range")
        return GroupElement(self, i)

    def elements(self):
        return range(self.order)

    def perm_of(self, i):
        """Underlying permutation tuple (permutation backend only)."""
        if self._perms is None:
            raise ValueError(f"{self.label} has no permutation representation")
        return self._perms[i]

    def index_of_perm(self, perm):
        if self._perm_index is None:
            raise ValueError(f"{self.label} has no permutation representation")
        return self._perm_index[tuple(perm)]

    def table(self):
        """Full Cayley table as nested lists (a copy)."""
        return [row[:] for row in self._table]

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"FiniteGroup({self.label!r}, order={self.order}, {self.backend})"


class GroupElement:
    """An element index bound to its group."""

    __slots__ = ("group", "idx")

    def __init__(self, group, idx):
        if not 0 <= idx < group.order:
            raise IndexError(f"{group.label}: element index {idx} out of range")
        self.group = group
        self.idx = idx

    def __mul__(self, other):
        if other.group is not self.group:
            raise GroupMismatch("elements of different groups")
        return GroupElement(self.group, self.group.mul(self.idx, other.idx))

    def __pow__(self, n):
        return GroupElement(self.group, self.group.power(self.idx, n))

    def inverse(self):
        return GroupElement(self.group, self.group.inv(self.idx))

    def order(self):
        return self.group.element_order(self.idx)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and other.group is self.group
            and other.idx == self.idx
        )

    def __hash__(self):
        return hash((id(self.group), self.idx))

    def __repr__(self):
        return f"<{self.group.label}[{self.idx}]>"


# -- constructors ------------------------------------------------------------


def build_table_group(table, label="table-group"):
    """Validate a Cayley table and wrap it as a FiniteGroup.

    Each row is converted with ``int`` and range-checked once.  Raises
    NoIdentity / NoInverse / NotAssociative naming a witness, and
    ValueError for malformed input (non-square, entries out of range,
    naming the first offending entry).
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for row in table:
        if len(row) != n:
            raise ValueError(f"{label}: table is not square")
        ints = _int_row(row)
        if ints is None or min(ints) < 0 or max(ints) >= n:
            v = next(v for v in row if not 0 <= int(v) < n)
            raise ValueError(f"{label}: entry {v} out of range 0..{n - 1}")
        rows.append(ints)
    return FiniteGroup(label, table=rows)


def build_perm_group(degree, generators, cap=DEFAULT_CLOSURE_CAP, label="perm-group"):
    """Close a generator list breadth-first into a permutation group.

    Indices follow discovery order: identity is 0, then products in
    queue order with generators applied in input order, so the indexing
    is reproducible.  The closure records each new element as p*g, with
    p found earlier and g a generator, so its table row is the row of p
    read through the row of g, because (p*g)*x = p*(g*x); the generators'
    rows, g*x for every x, are the only rows composed from permutations.
    Raises CapExceeded when the closure grows past ``cap`` and
    InvalidPermutation for bad generators.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = []
    for g in generators:
        g = tuple(int(v) for v in g)
        if sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"{label}: {g} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    identity = tuple(range(degree))
    elems = [identity]
    position = {identity: 0}
    tree = []  # (p, k) for elements 1, 2, ...: element = elems[p] * gens[k]
    for p, current in enumerate(elems):
        for k, g in enumerate(gens):
            # mul(i, j) applies permutation j first, then i
            new = tuple(map(current.__getitem__, g))
            if new not in position:
                if len(elems) + 1 > cap:
                    raise CapExceeded(f"{label}: closure exceeds cap {cap}")
                position[new] = len(elems)
                elems.append(new)
                tree.append((p, k))
    through = [
        _read_through([position[tuple(map(g.__getitem__, q))] for q in elems]) for g in gens
    ]
    rows = [list(range(len(elems)))]
    for p, k in tree:
        rows.append(through[k](rows[p]))
    return FiniteGroup(label, table=rows, perms=elems)


def _int_row(row):
    """``row`` as a list of the ints ``int`` makes of its entries, or None
    if one has no int value.  ``operator.index`` makes the same ints of
    integer entries (bool and numpy integers too) at a third of the cost."""
    try:
        return list(map(operator.index, row))
    except TypeError:
        pass
    try:
        return list(map(int, row))
    except (TypeError, ValueError):
        return None


def _read_through(index_map):
    """The function row -> [row[i] for i in index_map], run in C; with a
    table row as ``index_map`` it composes rows: g's row read through
    h's is the row of g*h."""
    if len(index_map) == 1:  # itemgetter of one index returns a bare item
        i = index_map[0]
        return lambda row: [row[i]]
    get = operator.itemgetter(*index_map)
    return lambda row: list(get(row))


def cyclic_group(n, label=None):
    ident = list(range(n))
    return build_table_group([ident[i:] + ident[:i] for i in range(n)], label or f"Z{n}")


def symmetric_group(n, label=None):
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = []
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = 1, 0
        gens.append(tuple(swap))
    if n >= 3:
        gens.append(tuple(list(range(1, n)) + [0]))
    return build_perm_group(n, gens, cap=max(1, _factorial(n)), label=label or f"S{n}")


def _factorial(n):
    return reduce(lambda a, b: a * b, range(1, n + 1), 1)


def dihedral_group(n, label=None):
    """Dihedral group of order 2n; index 4j+i is r^i s^j for n=4 etc."""

    def key(i, j):
        return j * n + i

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    # (r^i s^j)(r^k s^l): s r^k = r^-k s
                    rot = (i + (k if j == 0 else -k)) % n
                    table[key(i, j)][key(k, l)] = key(rot, (j + l) % 2)
    return build_table_group(table, label or f"D{2 * n}")


def quaternion_group(label="Q8"):
    """Quaternion group of order 8; indices 0..7 are 1,i,j,k,-1,-i,-j,-k."""
    base = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }
    table = [[0] * 8 for _ in range(8)]
    for s1 in range(2):
        for b1 in range(4):
            for s2 in range(2):
                for b2 in range(4):
                    s, b = base[(b1, b2)]
                    table[4 * s1 + b1][4 * s2 + b2] = 4 * ((s1 + s2 + s) % 2) + b
    return build_table_group(table, label)


def heisenberg_group_3(label="Heis27"):
    """Upper unitriangular 3x3 matrices over F_3: order 27, exponent 3.

    Index of (a, b, c) is 9a + 3b + c; (a,b,c)*(d,e,f) = (a+d, b+e, c+f+a*e).
    """
    def key(a, b, c):
        return 9 * a + 3 * b + c

    table = [[0] * 27 for _ in range(27)]
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for e in range(3):
                        for f in range(3):
                            table[key(a, b, c)][key(d, e, f)] = key(
                                (a + d) % 3, (b + e) % 3, (c + f + a * e) % 3
                            )
    return build_table_group(table, label)


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """A verified subgroup: sorted member indices plus the generators used."""

    __slots__ = ("group", "members", "generators", "_member_set")

    def __init__(self, group, members, generators=()):
        self.group = group
        self.members = tuple(sorted(members))
        self.generators = tuple(generators)
        self._member_set = frozenset(self.members)

    @property
    def size(self):
        return len(self.members)

    def __contains__(self, idx):
        return idx in self._member_set

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.group is self.group
            and other.members == self.members
        )

    def __hash__(self):
        return hash((id(self.group), self.members))

    def is_normal(self):
        """gHg^-1 inside H for each generator g of G, checked on H's
        generators (on its members where none are recorded)."""
        G = self.group
        return all(
            G.conjugate(g, h) in self._member_set
            for g in G.generators
            for h in self.generators or self.members
        )

    def is_abelian(self):
        G = self.group
        ms = self.members
        return all(
            G.mul(a, b) == G.mul(b, a) for i, a in enumerate(ms) for b in ms[:i]
        )

    def index(self):
        return self.group.order // self.size

    def left_coset(self, t):
        return tuple(sorted(self.group.mul(t, h) for h in self.members))

    def __repr__(self):
        return f"Subgroup({self.group.label}, {list(self.members)})"


def generate_subgroup(G, gens):
    """Smallest subgroup of G containing ``gens``.

    Breadth-first closure of {identity} under right multiplication by
    the generators alone; in a finite group the monoid this reaches is
    already the subgroup, so inverses need no separate step.
    """
    for g in gens:
        if not 0 <= g < G.order:
            raise ValueError(f"{G.label}: generator index {g} out of range")
    gens = tuple(dict.fromkeys(gens))
    elems = [G.identity]
    seen = {G.identity}
    for x in elems:
        row = G.left_row(x)
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return Subgroup(G, elems, generators=gens)


def greedy_closure(G, candidates):
    """generate_subgroup of ``candidates``, generated by those candidates,
    in order, that the closure so far misses; each one at least doubles
    the closure, so there are at most log2 of its order."""
    closure = generate_subgroup(G, ())
    for x in candidates:
        if x not in closure:
            closure = generate_subgroup(G, closure.generators + (x,))
    return closure


def as_subgroup(H):
    """A FiniteGroup or Subgroup as a Subgroup that records generators.

    A FiniteGroup becomes its whole subgroup.  A Subgroup without
    recorded generators, such as ``Subgroup(G, members)``, gets a greedy
    generating set of its members; ValueError if those members do not
    form a subgroup.
    """
    if isinstance(H, FiniteGroup):
        return Subgroup(H, H.elements(), H.generators)
    if not isinstance(H, Subgroup):
        raise TypeError(f"expected FiniteGroup or Subgroup, got {type(H)!r}")
    if H.generators:
        return H
    closure = greedy_closure(H.group, H.members)
    if closure.members != H.members:
        raise ValueError(f"{H.group.label}: {list(H.members)} is not a subgroup")
    return closure


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
    maps = _conjugations(H.group, H.generators, H.members)
    seen = bytearray(H.group.order)
    return greedy_closure(
        H.group, [y for x in elements if not seen[x] for y in orbit(x, maps, seen)]
    )


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


# -- homomorphisms and automorphisms -------------------------------------------


def check_homomorphism(source, target, phi, what):
    """Raise NotMultiplicative unless the index list ``phi`` has
    phi(x*g) == phi(x)*phi(g) for all x and each generator g of ``source``.
    That is exact: the g that pass are closed under products."""
    for g in source.generators:
        image = phi[g]
        for x, row in enumerate(source._table):
            if phi[row[g]] != target.mul(phi[x], image):
                raise NotMultiplicative(f"{what}: map(x*y) != map(x)*map(y) at ({x},{g})")


class Automorphism:
    """A validated multiplicative bijection on element indices."""

    __slots__ = ("group", "map", "order", "name")

    def __init__(self, group, mapping, name="aut"):
        self.group = group
        self.map = tuple(map(int, mapping))
        self.name = name
        self._validate()
        self.order = self._compute_order()

    def _validate(self):
        G, m = self.group, self.map
        n = G.order
        if len(m) != n or sorted(m) != list(range(n)):
            raise NotBijective(f"{G.label}/{self.name}: map is not a permutation of indices")
        if m[G.identity] != G.identity:
            raise NotMultiplicative(f"{G.label}/{self.name}: identity not fixed")
        check_homomorphism(G, G, m, f"{G.label}/{self.name}")

    def _compute_order(self):
        ident = tuple(range(self.group.order))
        step = self.map.__getitem__
        current, k = self.map, 1
        while current != ident:
            current = tuple(map(step, current))
            k += 1
        return k

    def apply(self, idx):
        return self.map[idx]

    def map_power(self, k):
        """Index map of the k-th iterate."""
        k %= self.order
        step = self.map.__getitem__
        current = tuple(range(self.group.order))
        for _ in range(k):
            current = tuple(map(step, current))
        return current

    def __repr__(self):
        return f"Automorphism({self.group.label}, {self.name!r}, order={self.order})"


def automorphism_from_map(G, mapping, name="aut"):
    return Automorphism(G, mapping, name=name)


def identity_automorphism(G):
    return Automorphism(G, range(G.order), name="id")


def inversion_automorphism(G):
    """x -> x^-1; a valid automorphism exactly on abelian groups."""
    return Automorphism(G, [G.inv(x) for x in G.elements()], name="inv")


def inner_automorphism(G, g, name=None):
    """Conjugation x -> g x g^-1."""
    return Automorphism(
        G,
        [G.conjugate(g, x) for x in G.elements()],
        name=name or f"conj{g}",
    )


# -- order-3 semidirect extension ---------------------------------------------


class SemidirectExtension(FiniteGroup):
    """G extended by an order-dividing-3 automorphism.

    Pairs (g, i), i in 0..2, are indexed as g + |G|*i, so the i=0 block
    embeds G.  Multiplication is
        (g, i) * (h, j) = (g * aut^((3-i) mod 3)(h), (i+j) mod 3)
    which makes (a, 1)**3 the identity exactly for a in the splitting
    set {x : x^(aut^2) x^aut x = 1}.
    """

    def __init__(self, base, aut, label=None):
        if 3 % aut.order != 0:
            raise OrderNotDividing3(
                f"{base.label}/{aut.name}: automorphism order {aut.order} does not divide 3"
            )
        n = base.order
        # block j of row (g, i) is g's row read through the twist, shifted
        # into block (i + j) mod 3
        twists = [_read_through(aut.map_power((3 - i) % 3)) for i in range(3)]
        shifted = [[list(map((n * b).__add__, row)) for row in base._table] for b in range(3)]
        table = []
        for i, twist in enumerate(twists):
            for g in range(n):
                row = []
                for j in range(3):
                    row += twist(shifted[(i + j) % 3][g])
                table.append(row)
        self.base = base
        self.twist = aut
        super().__init__(label or f"{base.label}:rtimes3", table=table)

    def pair_index(self, g, i):
        return g + self.base.order * (i % 3)


def semidirect_c3(G, aut, label=None):
    """Order-3 semidirect extension of G by ``aut`` (see SemidirectExtension)."""
    return SemidirectExtension(G, aut, label=label)
