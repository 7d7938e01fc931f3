"""Counting measure on finite groups and largeness certificates.

Subsets are bitmasks over element indices; every measure is an exact
``fractions.Fraction``.  A subset is immutable, so its left translates
live in one table per subset, built on first use (``Subset.translates``):
entry x is the bitmask of xA.  Certificates, cube-law checks,
averaging and k-largeness all read that table.  It is built a whole
row at a time in C: each Cayley row is read through the members and
the powers of two of the images are summed, which equals their OR
because a row is a bijection (``_image_masks``, which also makes right
translates and inverse sets).  Scans over translates walk the leading
members one at a time and take the last member a whole row at a time:
the average sums the last translate through the bit-planes of a
per-element count (:func:`average_translate_intersection`), which
equals the per-tuple sum for every mask table, so the averaging
identity is still checked and the product of the measures never read;
largeness checks AND a prefix with a whole row of masks over sets of
distinct members, not k-tuples, so their work is bounded by |U| and
not by k (``_sets_meet``), charging the budget exactly what one check
at a time would.  The one deliberately inexact operation is
:func:`translate_product_mean`, which works with complex-valued
functions in floating point (documented tolerance 1e-10); only it,
``GroupFunction`` and ``l2_distance`` use numpy, which each imports
when called, so the first such call pays the import.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import EmptyBase, SearchBudgetExceeded, UnitBallViolated
from .groups import _index, _index_list, _one_group, _read_through, _record

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
        G = _one_group((self, other), "subsets over different groups")
        return Subset(G, self.bits & other.bits)

    def __or__(self, other):
        G = _one_group((self, other), "subsets over different groups")
        return Subset(G, self.bits | other.bits)

    def __sub__(self, other):
        G = _one_group((self, other), "subsets over different groups")
        return Subset(G, self.bits & ~other.bits)

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
    G = _one_group(sets, "sets over different groups")
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
    G = _one_group(sets, "sets over different groups")
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
    _one_group((f, g), "functions over different groups")
    return float(np.sqrt(np.mean(np.abs(f.values - g.values) ** 2)))


def translate_product_mean(funcs, xs):
    """Mean over the group of the product of left-translated functions.

    With indicator functions this reduces to the exact translate
    intersection measure; in general it is a complex number of modulus
    at most 1 computed in floating point.
    """
    if len(funcs) != len(xs) or not funcs:
        raise ValueError("need equally many functions and translates, at least one")
    G = _one_group(funcs, "functions over different groups")
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
    translate intersection with the base set nonempty.  A tuple's
    intersection is A ∩ ⋂ uA over its distinct members other than the
    identity, and it only shrinks as that set grows, so ``validate``
    checks the sets of min(k, |U| - 1) members of U - {e}.
    """

    group: object
    base: Subset
    k: int
    u_set: Subset

    def validate(self):
        e = self.group.identity
        if e not in self.u_set or not self.u_set.is_symmetric():
            return False
        rest = [u for u in self.u_set.indices() if u != e]
        unlimited = _SetBudget(self.group.label, float("inf"))
        return _sets_meet(
            self.base.bits, self.base.translates(), rest, min(self.k, len(rest)), unlimited
        )


class _SetBudget:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit
        self.used = 0

    def spend(self, amount):
        """Charge ``amount`` set checks.  Past the limit it raises as a
        count of one check at a time would: at check limit + 1."""
        if self.used + amount > self.limit:
            self.used = self.limit + 1
            raise SearchBudgetExceeded(
                f"{self.label}: set checks {self.used} exceed budget {self.limit}"
            )
        self.used += amount


def _sets_meet(base_bits, masks, members, size, budget):
    """Whether base ∩ u_1 A ∩ ... ∩ u_s A is nonempty for every set of
    ``size`` distinct ``members``, where ``base_bits`` is a mask and
    ``masks`` is A's translate table.

    Sets run in ``itertools.combinations`` order of the sorted members,
    which are sorted only when a set has any.  The leading members are
    walked one set at a time; the last member, which runs over the
    members after the previous one, is tested for a whole row at once.
    ``budget`` is charged one check per set up to and including the
    first that misses, or the whole row when none does.  Size 0 is the
    one empty set: one check of the base alone.
    """
    if not size:
        budget.spend(1)
        return bool(base_bits)
    row = [masks[u] for u in sorted(members)]
    for positions in itertools.combinations(range(len(row) - 1), size - 1):
        acc = reduce(int.__and__, map(row.__getitem__, positions), base_bits)
        last = row[positions[-1] + 1:] if positions else row
        if all(map(acc.__and__, last)):
            budget.spend(len(last))
            continue
        budget.spend(operator.indexOf(map(acc.__and__, last), 0) + 1)
        return False
    return True


def _valid_extension(base_bits, masks, rest, cls, k, budget):
    """Whether U ∪ cls is valid for a valid U = {e} ∪ ``rest``.

    The sets to check have min(k, |rest| + |cls|) members.  Those inside
    ``rest`` are subsets of sets that U's validity already covers, so
    only the ones that meet the class are walked: each nonempty part D
    of it ({x}, {x^-1}, then {x, x^-1}) with the rest of the set drawn
    from ``rest``, against the base A ∩ DA.  The budget is exact: it is
    charged one check per set, in that order, up to and including the
    first set that misses the base set; if it runs out first,
    SearchBudgetExceeded reports ``limit + 1`` checks, as a
    one-at-a-time count would.
    """
    size = min(k, len(rest) + len(cls))
    for n in range(1, min(len(cls), size) + 1):
        for part in itertools.combinations(cls, n):
            base = reduce(int.__and__, map(masks.__getitem__, part), base_bits)
            if not _sets_meet(base, masks, rest, size - n, budget):
                return False
    return True


def k_large_certificate(A, k, strategy="greedy", budget=DEFAULT_KLARGE_BUDGET):
    """Search for a largeness certificate around the identity.

    U is valid when every k-tuple from U meets the base set A, which
    holds exactly when every set of min(k, |U| - 1) distinct members of
    U - {e} does (see ``LargenessCertificate``), so the work is bounded
    by |U| and not by k.  U starts as {identity}, valid because A is
    not empty.  greedy: try each inverse class {x, x^-1} once, in order
    of its least member, and keep it only if the enlarged U is still
    valid; a class that fails stays failed as U grows, so one trial
    decides it.  exhaustive: branch over all inverse classes for a
    maximum-size valid U (group order capped at 24).  Budgets count one
    check per set of distinct members; past the cap or the budget,
    SearchBudgetExceeded names the group.
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
    tracker = _SetBudget(G.label, budget)
    masks = A.translates()
    e = G.identity
    classes = sorted({tuple(sorted({x, G.inv(x)})) for x in G.elements() if x != e})
    if strategy == "greedy":
        rest = []
        for cls in classes:
            if _valid_extension(A.bits, masks, rest, cls, k, tracker):
                rest += cls
        return LargenessCertificate(G, A, k, Subset.from_indices(G, [e, *rest]))
    if strategy == "exhaustive":
        best = (e,)

        def extend(members, idx):
            nonlocal best
            # the largest U, then the least members
            best = min(best, tuple(sorted(members)), key=lambda m: (-len(m), m))
            # validity is monotone decreasing, so prune when even taking
            # every remaining class cannot beat the best size found
            remaining = sum(len(c) for c in classes[idx:])
            if len(members) + remaining < len(best):
                return
            for i, cls in enumerate(classes[idx:], idx):
                if _valid_extension(A.bits, masks, members - {e}, cls, k, tracker):
                    extend(members | set(cls), i + 1)

        extend({e}, 0)
        return LargenessCertificate(G, A, k, Subset.from_indices(G, best))
    raise ValueError(f"unknown strategy {strategy!r}")
