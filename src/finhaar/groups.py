"""Finite groups on integer element indices: the group core.

This module owns what reading a catalog needs: ``FiniteGroup`` and
``GroupElement``, the two builders and the one rule for element
indices, ``Subgroup`` and its closures, ``check_homomorphism``,
``Automorphism`` with its identity, inversion and inner shortcuts, and
the frozen records (``_record``), whose constructors raise a TypeError
that names the class and its field tuple.  Named groups and the order-3
extension live in ``families``; conjugacy classes, normal closures and
cores, and the double cosets the searches skip live in ``lattice``.

Every group keeps its full Cayley table as a list of lists, so ``mul``
and ``left_row`` are plain lookups.  A group is given either by that
table (table backend) or as a closure of permutations with
deterministic breadth-first indexing (permutation backend).  Both build
the table a whole row at a time with list operations that run in C:

* table backend: the given table is checked once by the one rule for
  element indices, over all its cells at once, and its rows are copied;
  rows are checked one by one only to name the bad entry of a table
  that fails (``build_table_group``);
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

Every ``Subgroup`` is closed and records generators that generate
exactly its members, so checks on a subgroup run on its generators.
The one subgroup closure, ``_extend``, extends a closed subgroup by
one element a coset at a time; ``generate_subgroup`` and
``greedy_closure`` fold it from the trivial subgroup.

One guard, ``_one_group``, checks that the sets, subsets, functions or
elements that one call combines belong to one group, and raises
GroupMismatch when they do not.

One rule decides what an element index from outside is (``_index_list``
for lists, ``_index`` for one): a Python or numpy integer in 0..n-1,
never a bool, float or str, kept as a Python int.  Every public call
that takes indices checks them by it and names itself in its ValueError,
the ``Subgroup`` constructor included, except the raw kernels ``mul``,
``inv``, ``conjugate``, ``power``, ``left_row``, ``right_map``,
``Subset.left_translate`` and ``Subset.translates`` (its table is
indexed as is) and the per-element arithmetic built on them.
Membership is a question, not an index given to work on: ``x in H`` for
a ``Subgroup`` or ``Subset`` never raises and answers, as a Python set
of ints would, whether x equals a member, so -1, 1.5 and n are simply
not in H.

Groups, subgroups and automorphisms are immutable after construction and
safe to share between threads.  Lazily cached attributes only memoise
pure recomputations.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import (
    CapExceeded,
    GroupMismatch,
    InvalidPermutation,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotBijective,
    NotMultiplicative,
)

DEFAULT_CLOSURE_CAP = 4096


class FiniteGroup:
    """Immutable finite group with elements 0..order-1.

    ``mul`` and ``inv`` are total on indices; ``identity`` is the index
    of the neutral element.  ``backend`` is "table" or "permutation".
    ``generators`` adds, in index order, each element the closure so far
    misses; each one at least doubles the closure.

    ``table`` is a list of rows of Python ``int`` indices, kept as given;
    with ``perms``, ``perms[i]`` is the permutation of element i and the
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
        self._subgroups = None

    # -- construction internals ------------------------------------------

    def _find_identity(self):
        t = self._table
        ident = list(range(self.order))
        for e, row in enumerate(t):
            if row == ident and list(map(operator.itemgetter(e), t)) == ident:
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
        return _commute_pairwise(self, self.generators)

    # -- conveniences -------------------------------------------------------

    def element(self, i):
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
        self.group = group
        self.idx = _index(idx, group.order, f"GroupElement on {group.label}")

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

    The index rule of ``_index_list`` is checked once for the whole
    table, in C over a chain of its cells: every entry an exact ``int``,
    all of them in 0..n-1.  Only a table that fails that check (or holds
    numpy integers) is checked row by row, so that the ValueError names
    the first bad entry.  Raises NoIdentity / NoInverse / NotAssociative
    naming a witness, and ValueError for malformed input (non-square, an
    entry that is not an int in 0..n-1, naming the first offending entry).
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    if any(len(row) != n for row in table):
        raise ValueError(f"{label}: table is not square")
    cells = itertools.chain.from_iterable
    if set(map(type, cells(table))) <= {int} and _index_range(n).issuperset(cells(table)):
        rows = list(map(list, table))
    else:
        rows = [_index_list(row, n, label) for row in table]
    return FiniteGroup(label, table=rows)


def build_perm_group(degree, generators, cap=DEFAULT_CLOSURE_CAP, label="perm-group"):
    """Close a generator list breadth-first into a permutation group.

    Indices follow discovery order: identity is 0, then products in
    queue order with generators applied in input order, so the indexing
    is reproducible.  The closure records each new element as p*g, with
    p found earlier and g a generator, so its table row is the row of p
    read through the row of g, because (p*g)*x = p*(g*x); the generators'
    rows, g*x for every x, are the only rows composed from permutations.
    Raises CapExceeded when the closure grows past ``cap``, or when there
    is no generator and ``degree`` exceeds ``cap``, ValueError for an
    entry that is not an int in 0..degree-1 (``_index_list``) and
    InvalidPermutation for a generator that is no permutation.  Nothing
    of size ``degree`` is built before a generator's length is checked,
    so a huge degree fails at once.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    gens = []
    for g in generators:
        g = list(g)
        if len(g) == degree:  # the index check builds a range of the degree
            g = _index_list(g, degree, label)
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"{label}: {tuple(g)} is not a permutation of 0..{degree - 1}")
        gens.append(tuple(g))
    if not gens and degree > cap:
        raise CapExceeded(f"{label}: degree {degree} exceeds cap {cap} with no generators")
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


def _index_list(values, n, what):
    """``values`` as a new list of Python ints in 0..n-1: the one rule for
    element indices given from outside (table rows, permutations, maps).
    Python and numpy integers pass, the latter as ``numbers.Integral``
    without importing numpy; bool, float and str entries do not,
    integral or not.  ValueError names the first bad entry."""
    values = list(values)
    out = values
    if not set(map(type, values)) <= {int}:
        from numbers import Integral

        out = [
            operator.index(v) if isinstance(v, Integral) and type(v) is not bool else -1
            for v in values
        ]  # -1 marks an entry that is not an integer
    if not _index_range(n).issuperset(out):
        v = next(v for v, i in zip(values, out) if not 0 <= i < n)
        raise ValueError(f"{what}: entry {v!r} out of range 0..{n - 1}")
    return out


@lru_cache(maxsize=64)
def _index_range(n):
    """frozenset(range(n)), so that ``_index_list`` checks a row in one C
    pass; only ints are tested against it, so the check is exact."""
    return frozenset(range(n))


def _index(v, n, what):
    """``v`` as a Python int in 0..n-1 by the rule of ``_index_list``; an
    int in range is returned at once."""
    if type(v) is int and 0 <= v < n:
        return v
    return _index_list((v,), n, what)[0]


def _one_group(items, message):
    """The one group that ``items`` (each with a ``.group``, at least one)
    belong to; GroupMismatch(``message``) when they belong to two."""
    G = items[0].group
    for item in items:
        if item.group is not G:
            raise GroupMismatch(message)
    return G


def _read_through(index_map):
    """The function row -> [row[i] for i in index_map], run in C; with a
    table row as ``index_map`` it composes rows: g's row read through
    h's is the row of g*h."""
    if len(index_map) == 1:  # itemgetter of one index returns a bare item
        i = index_map[0]
        return lambda row: [row[i]]
    get = operator.itemgetter(*index_map)
    return lambda row: list(get(row))


# -- subgroups ----------------------------------------------------------------


class Subgroup:
    """A verified subgroup: sorted member indices plus generators that
    generate exactly them.

    The constructor checks members and generators by the index rule and
    members for repeats.  Given generators must generate exactly the
    members and are kept as given; without them the members must form a
    subgroup, and a greedy generating set of them is recorded.
    """

    __slots__ = ("group", "members", "generators", "_member_set")

    def __init__(self, group, members, generators=()):
        what = f"Subgroup on {group.label}"
        members = _index_list(members, group.order, what)
        generators = _index_list(generators, group.order, what)
        if len(set(members)) != len(members):
            raise ValueError(f"{what}: repeated member in {members}")
        self._fill(group, members, generators)
        if generators:
            if generate_subgroup(group, generators).members != self.members:
                members = list(self.members)
                raise ValueError(f"{what}: generators {generators} do not generate {members}")
        else:
            closure = greedy_closure(group, self.members)
            if closure.members != self.members:
                raise ValueError(f"{what}: {list(self.members)} is not a subgroup")
            self.generators = closure.generators

    @classmethod
    def _trusted(cls, group, members, generators=()):
        """A Subgroup whose members and generators the caller has just
        made from the group itself, the generators generating exactly the
        members, so neither is checked again."""
        H = cls.__new__(cls)
        H._fill(group, members, generators)
        return H

    def _fill(self, group, members, generators):
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
        generators."""
        G = self.group
        return all(
            G.conjugate(g, h) in self._member_set
            for g in G.generators
            for h in self.generators
        )

    def is_abelian(self):
        """Whether H's generators commute pairwise."""
        return _commute_pairwise(self.group, self.generators)

    def index(self):
        return self.group.order // self.size

    def left_coset(self, t):
        return tuple(sorted(self.group.mul(t, h) for h in self.members))

    def __repr__(self):
        return f"Subgroup({self.group.label}, {list(self.members)})"


def _commute_pairwise(G, elems):
    """Whether ``elems`` commute pairwise; on generators, whether their group is abelian."""
    t = G._table
    return all(t[a][b] == t[b][a] for i, a in enumerate(elems) for b in elems[:i])


def generate_subgroup(G, gens):
    """Smallest subgroup of G containing ``gens``, recorded with the
    generators as given, repeats dropped: the trivial subgroup extended
    by each generator in turn, a coset at a time (``greedy_closure``)."""
    what = f"generate_subgroup on {G.label}"
    gens = tuple(dict.fromkeys([_index(g, G.order, what) for g in gens]))
    return Subgroup._trusted(G, greedy_closure(G, gens).members, gens)


def _extend(H, g):
    """<H, g> for a closed subgroup H, with generators H.generators +
    (g,); H itself when g is in H.

    <H, g> is a union of left cosets rH, which left multiplication by
    its generators permutes: they are closed breadth-first from H, one
    representative at a time, and each new coset yH is read in C from
    y's table row.  In a finite group the monoid the generators generate
    is already <H, g>, so inverses need no step."""
    if g in H:
        return H
    G = H.group
    t = G._table
    gens = H.generators + (g,)
    rows = [t[s] for s in gens]
    # the identity twice, so that even the trivial H gives a tuple
    coset = operator.itemgetter(G.identity, *H.members)
    members = set(H.members)
    reps = [G.identity]
    for r in reps:
        for row in rows:
            y = row[r]
            if y not in members:
                members.update(coset(t[y]))
                reps.append(y)
    return Subgroup._trusted(G, members, gens)


def greedy_closure(G, candidates):
    """The subgroup of G the candidates generate, generated by those
    candidates, in order, that the closure so far misses: the trivial
    subgroup extended by each in turn, a coset at a time (``_extend``),
    a candidate already inside leaving it as it is.  Each generator at
    least doubles the closure, so there are at most log2 of its order."""
    closure = Subgroup._trusted(G, [G.identity])
    for x in candidates:
        if x not in closure._member_set:
            closure = _extend(closure, x)
    return closure


# -- homomorphisms and automorphisms -------------------------------------------


def check_homomorphism(source, target, phi, what):
    """Raise NotMultiplicative unless the index list ``phi`` has
    phi(x*g) == phi(x)*phi(g) for all x and each generator g of ``source``.
    That is exact: the g that pass are closed under products."""
    t = target._table
    for g in source.generators:
        image = phi[g]
        for x, row in enumerate(source._table):
            if phi[row[g]] != t[phi[x]][image]:
                raise NotMultiplicative(f"{what}: map(x*y) != map(x)*map(y) at ({x},{g})")


class Automorphism:
    """A validated multiplicative bijection on element indices.

    ``order`` is the lcm of the cycle lengths of the map, found in one
    pass over the indices."""

    __slots__ = ("group", "map", "order", "name")

    def __init__(self, group, mapping, name="aut"):
        self.group = group
        self.map = tuple(_index_list(mapping, group.order, f"{group.label}/{name}"))
        self.name = name
        self._validate()
        self.order = self._compute_order()

    def _validate(self):
        G, m = self.group, self.map
        n = G.order
        if len(m) != n or len(set(m)) != n:  # the map is in range already
            raise NotBijective(f"{G.label}/{self.name}: map is not a permutation of indices")
        if m[G.identity] != G.identity:
            raise NotMultiplicative(f"{G.label}/{self.name}: identity not fixed")
        check_homomorphism(G, G, m, f"{G.label}/{self.name}")

    def _compute_order(self):
        """The lcm of the cycle lengths of the validated permutation."""
        m = self.map
        seen = [False] * len(m)
        order = 1
        for start in range(len(m)):
            length, x = 0, start
            while not seen[x]:
                seen[x] = True
                x = m[x]
                length += 1
            if length:
                order = math.lcm(order, length)
        return order

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
    g = _index(g, G.order, f"inner_automorphism on {G.label}")
    return Automorphism(
        G,
        [G.conjugate(g, x) for x in G.elements()],
        name=name or f"conj{g}",
    )


# -- frozen records ------------------------------------------------------------


def _record(cls):
    """Make ``cls`` a frozen record, as ``@dataclass(frozen=True)`` would,
    without generating code: its fields are its own annotations, in
    order, and a field's default is the class attribute of that name.
    Every command imports every record class, and ``dataclasses`` (with
    the ``inspect`` it imports) and the methods it execs were the largest
    share of that import.

    The field names, in order, are the class's ``__match_args__``, as a
    dataclass's are.  Instances take the fields positionally or by
    keyword, compare and hash as the tuple of their fields (another class
    compares ``NotImplemented``), and print as ``Name(field=value, ...)``;
    a call that does not fill each field once, by position, keyword or
    default, raises a TypeError that names the class and its field
    tuple, and setting or deleting an attribute raises AttributeError.
    The fields live in the instance ``__dict__``, which ``__init__``
    fills by ``update`` and checks once, as fast as a dataclass's
    ``__init__``: ``is_2engel`` builds a record per law check.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    n = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    # the keyword names allowed after k positional arguments
    tails = tuple(frozenset(names[k:]) for k in range(n + 1))

    def values(self):
        return tuple(map(self.__dict__.__getitem__, names))

    def __init__(self, *args, **kwargs):
        fields = self.__dict__
        fields.update(defaults)
        if args:
            fields.update(zip(names, args))
        fields.update(kwargs)
        if len(fields) != n or len(args) > n or not kwargs.keys() <= tails[len(args)]:
            raise TypeError(f"{cls.__name__}() takes its fields {names} once each")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__name__} is frozen: cannot delete {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


# -- names that moved ----------------------------------------------------------

# bench/tracing.py's LAYERS still reads these as attributes of this module,
# with no default, so each is imported from its own module when read.
# Retired once the tracer imports every module it wraps and names them
# there (ROADMAP item 1, step 4).
_MOVED = {
    "cyclic_group": "families",
    "dihedral_group": "families",
    "heisenberg_group_3": "families",
    "quaternion_group": "families",
    "semidirect_c3": "families",
    "symmetric_group": "families",
    "normal_core": "lattice",
}


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__package__}.{_MOVED[name]}", fromlist=[name]), name)
