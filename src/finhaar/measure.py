"""Counting measure on finite groups and largeness certificates.

Subsets are bitmasks over element indices; every measure is an exact
``fractions.Fraction``.  A subset is immutable, so its left translates
live in one table per subset, built on first use (``Subset.translates``):
entry x is the bitmask of xA.  Certificates, cube-law checks,
averaging and k-largeness all read that table.  It is built a whole
row at a time in C: each Cayley row is read through the members and
the powers of two of the images are summed, which equals their OR
because a row is a bijection (``_image_masks``, which also makes right
translates and inverse sets).  Scans over translate tuples walk the
leading members one tuple at a time and take the last member a whole
row at a time: the average sums the last translate through the
bit-planes of a per-element count (:func:`average_translate_intersection`),
which equals the per-tuple sum for every mask table, so the averaging
identity is still checked and the product of the measures never read;
largeness checks AND a prefix with a whole row of masks
(``_tuples_meet``), charging the budget exactly what one check at a
time would.  The one deliberately inexact operation is
:func:`translate_product_mean`, which works with complex-valued
functions in floating point (documented tolerance 1e-10); only it,
``GroupFunction`` and ``l2_distance`` use numpy, which each imports
when called, so the first such call pays the import.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import (
    EmptyBase,
    GroupMismatch,
    SearchBudgetExceeded,
    UnitBallViolated,
)
from .groups import _index, _index_list, _read_through, _record

DEFAULT_TUPLE_SPACE_BUDGET = 10**8
DEFAULT_KLARGE_BUDGET = 10**7
EXHAUSTIVE_ORDER_LIMIT = 24
UNIT_BALL_SLACK = 1e-12


def _image_masks(A, maps):
    """For each index map in ``maps``, the bitmask of {map[a] : a in A}.
    Every map here (a Cayley row or column, the inverse map) is a
    bijection, so no image repeats and summing powers of two is an OR."""
    if not A.bits:  # _read_through needs at least one index
        return [0] * len(maps)
    read = _read_through(A.indices())
    bit = _powers_of_two(A.group.order).__getitem__
    return [sum(map(bit, read(m))) for m in maps]


@lru_cache(maxsize=16)
def _powers_of_two(n):
    """[1 << i for i in range(n)], built once per group order."""
    return [1 << i for i in range(n)]


class Subset:
    """An immutable subset of a group, stored as an int bitmask."""

    __slots__ = ("group", "bits", "_translates")

    def __init__(self, group, bits):
        if type(bits) is not int or bits < 0 or bits >> group.order:
            raise ValueError(f"bitmask must be an int with bits in 0..{group.order - 1}")
        self.group = group
        self.bits = bits

    @classmethod
    def from_indices(cls, group, indices):
        bits = 0
        for i in _index_list(indices, group.order, f"Subset.from_indices on {group.label}"):
            bits |= 1 << i
        return cls(group, bits)

    @classmethod
    def from_predicate(cls, group, pred):
        return cls(group, sum(1 << i for i in group.elements() if pred(i)))

    @classmethod
    def full(cls, group):
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def empty(cls, group):
        return cls(group, 0)

    @property
    def size(self):
        return self.bits.bit_count()

    @property
    def measure(self):
        return Fraction(self.size, self.group.order)

    def indices(self):
        bits, out = self.bits, []
        while bits:
            lsb = bits & -bits
            out.append(lsb.bit_length() - 1)
            bits ^= lsb
        return out

    def translates(self):
        """Tuple whose entry x is the bitmask of {x * a : a in self}: one
        table per subset, built on first use.  Entry x reads x's Cayley
        row through the members and sums the powers of two of the
        images; the sum is their OR because a row of a validated group
        table is a bijection (``_image_masks``)."""
        try:
            return self._translates
        except AttributeError:
            table = self._translates = tuple(_image_masks(self, self.group._table))
            return table

    def left_translate(self, x):
        """The set {x * a : a in self}, read from the one table per subset,
        built on first use (``translates``)."""
        return Subset(self.group, self.translates()[x])

    def right_translate(self, x):
        """The set {a * x : a in self}."""
        G = self.group
        x = _index(x, G.order, f"Subset.right_translate on {G.label}")
        return Subset(G, _image_masks(self, [G.right_map(x)])[0])

    def inverse_set(self):
        return Subset(self.group, _image_masks(self, [self.group._inv])[0])

    def is_symmetric(self):
        return self.bits == self.inverse_set().bits

    def __and__(self, other):
        self._same_group(other)
        return Subset(self.group, self.bits & other.bits)

    def __or__(self, other):
        self._same_group(other)
        return Subset(self.group, self.bits | other.bits)

    def __sub__(self, other):
        self._same_group(other)
        return Subset(self.group, self.bits & ~other.bits)

    def __contains__(self, idx):
        return idx in range(self.group.order) and bool(self.bits >> int(idx) & 1)

    def __eq__(self, other):
        return (
            isinstance(other, Subset)
            and other.group is self.group
            and other.bits == self.bits
        )

    def __hash__(self):
        return hash((id(self.group), self.bits))

    def _same_group(self, other):
        if other.group is not self.group:
            raise GroupMismatch("subsets over different groups")

    def __repr__(self):
        return f"Subset({self.group.label}, size={self.size})"


def measure(A):
    """Normalized counting measure |A| / |G| as an exact Fraction."""
    return A.measure


def format_rational(q):
    """Render "p/q" in lowest terms with positive denominator."""
    f = Fraction(q)
    return f"{f.numerator}/{f.denominator}"


def translate_intersection_measure(sets, xs):
    """Exact measure of x_1 A_1 ∩ ... ∩ x_n A_n."""
    if len(sets) != len(xs) or not sets:
        raise ValueError("need equally many sets and translates, at least one")
    G = sets[0].group
    for A in sets:
        if A.group is not G:
            raise GroupMismatch("sets over different groups")
    xs = _index_list(xs, G.order, f"translate_intersection_measure on {G.label}")
    mask = (1 << G.order) - 1
    for A, x in zip(sets, xs):
        mask &= A.translates()[x]
        if not mask:
            return Fraction(0, 1)
    return Fraction(mask.bit_count(), G.order)


@_record
class AveragedIntersection:
    """Both sides of the exact averaging identity for translate tuples."""

    average: Fraction
    product_of_measures: Fraction

    @property
    def identity_holds(self):
        return self.average == self.product_of_measures


def _count_planes(masks):
    """Bit-planes of c(g) = #{y : bit g is set in masks[y]}: plane i
    holds the g whose count has bit i set.  Each mask is added to the
    planes bitwise, with a ripple carry, so no count is read per bit."""
    planes = []
    for carry in masks:
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def average_translate_intersection(sets, budget=DEFAULT_TUPLE_SPACE_BUDGET):
    """Average of the translate-intersection measure over all |G|^n tuples.

    The average is computed by honest enumeration of the n - 1 leading
    translates and returned next to the product of the sets' measures;
    the two are equal as exact rationals (the enumeration never consults
    the product).  The last translate is summed in one step: for a
    prefix mask P, sum_y |P & M[y]| over the last set's translate table
    M equals sum_{g in P} c(g) with c(g) = #{y : g in M[y]} (Fubini on
    the 0/1 matrix M), and with c held as bit-planes that is
    sum_i |P & plane_i| << i, about log2|G| ANDs per prefix.  The
    regrouping holds for any table of masks, not only a true translate
    table, so a corrupted table breaks the identity just as it would
    under per-tuple enumeration.  Raises SearchBudgetExceeded, naming
    the group, when |G|^n exceeds ``budget``.
    """
    if not sets:
        raise ValueError("need at least one set")
    G = sets[0].group
    for A in sets:
        if A.group is not G:
            raise GroupMismatch("sets over different groups")
    n = len(sets)
    if G.order**n > budget:
        raise SearchBudgetExceeded(
            f"{G.label}: {G.order}^{n} translate tuples exceed budget {budget}"
        )
    *leading, last = [A.translates() for A in sets]
    planes = _count_planes(last)
    weights = range(len(planes))
    full = (1 << G.order) - 1
    total = 0
    for prefix in itertools.product(*leading):
        partial = full
        for m in prefix:
            partial &= m
            if not partial:
                break
        if partial:
            counts = map(int.bit_count, map(partial.__and__, planes))
            total += sum(map(int.__lshift__, counts, weights))
    average = Fraction(total, G.order ** (n + 1))
    product = Fraction(1)
    for A in sets:
        product *= A.measure
    return AveragedIntersection(average=average, product_of_measures=product)


# -- complex-valued functions --------------------------------------------------


class GroupFunction:
    """A complex function on the group with all values in the unit disk."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        import numpy as np
        vals = np.asarray(values, dtype=np.complex128)
        if vals.shape != (group.order,):
            raise ValueError(f"need {group.order} values, got shape {vals.shape}")
        worst = float(np.max(np.abs(vals))) if group.order else 0.0
        if worst > 1.0 + UNIT_BALL_SLACK:
            raise UnitBallViolated(f"|value| = {worst} exceeds 1")
        self.group = group
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, group, value=1.0):
        import numpy as np
        return cls(group, np.full(group.order, value, dtype=np.complex128))

    @classmethod
    def indicator(cls, subset):
        import numpy as np
        vals = np.zeros(subset.group.order, dtype=np.complex128)
        for i in subset.indices():
            vals[i] = 1.0
        return cls(subset.group, vals)

    @classmethod
    def random_unit(cls, group, rng):
        """Uniform modulus in [0,1] and uniform phase, seeded by ``rng``."""
        import numpy as np
        radius = rng.uniform(0.0, 1.0, size=group.order)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=group.order)
        return cls(group, radius * np.exp(1j * phase))

    def left_translate(self, x):
        """(L_x f)(g) = f(x^-1 g)."""
        import numpy as np
        G = self.group
        row = G.left_row(G.inv(x))
        return GroupFunction(G, self.values[np.asarray(row)])

    def __repr__(self):
        return f"GroupFunction({self.group.label})"


def l2_distance(f, g):
    import numpy as np
    if f.group is not g.group:
        raise GroupMismatch("functions over different groups")
    return float(np.sqrt(np.mean(np.abs(f.values - g.values) ** 2)))


def translate_product_mean(funcs, xs):
    """Mean over the group of the product of left-translated functions.

    With indicator functions this reduces to the exact translate
    intersection measure; in general it is a complex number of modulus
    at most 1 computed in floating point.
    """
    if len(funcs) != len(xs) or not funcs:
        raise ValueError("need equally many functions and translates, at least one")
    G = funcs[0].group
    for f in funcs:
        if f.group is not G:
            raise GroupMismatch("functions over different groups")
    xs = _index_list(xs, G.order, f"translate_product_mean on {G.label}")
    import numpy as np
    prod = np.ones(G.order, dtype=np.complex128)
    for f, x in zip(funcs, xs):
        prod *= f.left_translate(x).values
    return complex(np.mean(prod))


# -- k-largeness ----------------------------------------------------------------


@_record
class LargenessCertificate:
    """A symmetric set U around the identity certifying k-fold largeness.

    Every k-tuple drawn from U (repetition allowed) leaves the k-fold
    translate intersection with the base set nonempty.
    """

    group: object
    base: Subset
    k: int
    u_set: Subset

    def validate(self):
        if self.group.identity not in self.u_set:
            return False
        if not self.u_set.is_symmetric():
            return False
        return _tuples_meet(
            self.base.bits, self.base.translates(), [(self.u_set.indices(), self.k)]
        )


class _TupleBudget:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit
        self.used = 0

    def spend(self, amount):
        """Charge ``amount`` tuple checks.  Past the limit it raises as a
        count of one check at a time would: at check limit + 1."""
        if self.used + amount > self.limit:
            self.used = self.limit + 1
            raise SearchBudgetExceeded(
                f"{self.label}: tuple checks {self.used} exceed budget {self.limit}"
            )
        self.used += amount


def _tuples_meet(base_bits, masks, blocks, budget=None):
    """Whether A ∩ u_1 A ∩ ... ∩ u_k A is nonempty for every tuple u,
    where ``base_bits`` is A and ``masks`` its translate table.

    A tuple joins one sorted multiset per block (members, count), drawn
    with ``combinations_with_replacement``; tuples run in product order
    over the blocks.  The leading members are walked one tuple at a
    time; the last member, which runs over the last block's members from
    the previous member's position on, is tested for a whole row at
    once.  ``budget`` is charged the tuples up to and including the
    first that misses, or the whole row when none does.
    """
    blocks = [(sorted(members), count) for members, count in blocks if count]
    if not blocks:  # k = 0: only the empty tuple, which checks nothing
        return True
    *front, (members, count) = blocks
    row = [masks[u] for u in members]
    leads = itertools.product(
        *(itertools.combinations_with_replacement(m, c) for m, c in front),
        itertools.combinations_with_replacement(range(len(row)), count - 1),
    )
    for *outer, positions in leads:
        acc = base_bits
        for part in outer:
            for u in part:
                acc &= masks[u]
        for p in positions:
            acc &= row[p]
        last = row[positions[-1]:] if positions else row
        if all(map(acc.__and__, last)):
            if budget is not None:
                budget.spend(len(last))
            continue
        if budget is not None:
            budget.spend(operator.indexOf(map(acc.__and__, last), 0) + 1)
        return False
    return True


def _valid_extension(base_bits, masks, old, new, k, budget):
    """Check the k-tuples over ``old`` and ``new`` that involve a new member.

    Intersection is order independent, so unordered tuples with
    repetition suffice: j >= 1 new members, then k - j old ones, which
    enumerates exactly the tuples not checked before.  The budget is
    exact: it is charged one check per tuple, in that order, up to and
    including the first tuple that misses the base set; if it runs out
    first, SearchBudgetExceeded reports ``limit + 1`` checks, as a
    one-at-a-time count would.
    """
    return all(
        _tuples_meet(base_bits, masks, [(new, j), (old, k - j)], budget)
        for j in range(1, k + 1)
    )


def k_large_certificate(A, k, strategy="greedy", budget=DEFAULT_KLARGE_BUDGET):
    """Search for a largeness certificate around the identity.

    greedy: grow U from {identity}, trying each inverse class {x, x^-1}
    once, in order of its least member, and keeping it only if every
    k-tuple from the enlarged U still meets the base set; a class that
    fails stays failed as U grows, so one trial decides it.  exhaustive:
    branch over all inverse classes for a maximum-size valid U (group
    order capped at 24).  Budgets count individual tuple checks; past
    the cap or the budget, SearchBudgetExceeded names the group.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if A.size == 0:
        raise EmptyBase("base set has measure zero")
    G = A.group
    if strategy == "exhaustive" and G.order > EXHAUSTIVE_ORDER_LIMIT:
        raise SearchBudgetExceeded(
            f"{G.label}: exhaustive search capped at order "
            f"{EXHAUSTIVE_ORDER_LIMIT} (|G| = {G.order})"
        )
    tracker = _TupleBudget(G.label, budget)
    masks = A.translates()
    e = G.identity
    classes = sorted({tuple(sorted({x, G.inv(x)})) for x in G.elements() if x != e})
    if strategy == "greedy":
        # the identity's class is checked first, so U always holds it
        members = set()
        for cls in [(e,), *classes]:
            if _valid_extension(A.bits, masks, members, cls, k, tracker):
                members.update(cls)
        return LargenessCertificate(G, A, k, Subset.from_indices(G, members))
    if strategy == "exhaustive":
        best_size, best_members = 1, (e,)

        def extend(members, idx):
            nonlocal best_size, best_members
            current = tuple(sorted(members))
            if len(current) > best_size or (
                len(current) == best_size and current < best_members
            ):
                best_size, best_members = len(current), current
            # validity is monotone decreasing, so prune when even taking
            # every remaining class cannot beat the best size found
            remaining = sum(len(c) for c in classes[idx:])
            if len(members) + remaining < best_size:
                return
            for i in range(idx, len(classes)):
                cls = classes[i]
                if _valid_extension(A.bits, masks, members, cls, k, tracker):
                    extend(members | set(cls), i + 1)

        extend({e}, 0)
        return LargenessCertificate(G, A, k, Subset.from_indices(G, best_members))
    raise ValueError(f"unknown strategy {strategy!r}")
