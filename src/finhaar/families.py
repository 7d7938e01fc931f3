"""Named groups and the order-3 semidirect extension.

This module owns the groups that are built by name rather than read
from a catalog: cyclic, symmetric, dihedral, quaternion and Heisenberg
groups, each a table or permutation group made by the builders of
``groups``, and ``SemidirectExtension``, a group G extended by an
automorphism of order dividing 3.  A catalog read builds its groups
from their tables and generators and never loads this module.
"""

from __future__ import annotations

import math

from .errors import OrderNotDividing3
from .groups import FiniteGroup, _read_through, build_perm_group, build_table_group


def _rule_group(elements, mul, label):
    """The table group on ``elements``, indexed in the order given, under
    the multiplication rule ``mul`` on them."""
    index = {x: i for i, x in enumerate(elements)}
    return build_table_group([[index[mul(x, y)] for y in elements] for x in elements], label)


def cyclic_group(n, label=None):
    ident = list(range(n))
    return build_table_group([ident[i:] + ident[:i] for i in range(n)], label or f"Z{n}")


def symmetric_group(n, label=None):
    """S_n closed from (0 1) and (0 1 ... n-1), both (0 1) for n = 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    gens = [tuple((x + 1) % m if x < m else x for x in range(n)) for m in (min(2, n), n)]
    return build_perm_group(n, gens, cap=math.factorial(n), label=label or f"S{n}")


def dihedral_group(n, label=None):
    """Dihedral group of order 2n; index j*n+i is r^i s^j."""
    # (r^i s^j)(r^k s^l) = r^(i +- k) s^(j+l), since s r^k = r^-k s
    return _rule_group(
        [(i, j) for j in range(2) for i in range(n)],
        lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, (x[1] + y[1]) % 2),
        label or f"D{2 * n}",
    )


def quaternion_group(label="Q8"):
    """Quaternion group of order 8; indices 0..7 are 1,i,j,k,-1,-i,-j,-k:
    index 4s+b is (-1)^s times unit b."""
    units = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }

    def mul(x, y):
        s, b = units[x[1], y[1]]
        return (x[0] + y[0] + s) % 2, b

    return _rule_group([(s, b) for s in range(2) for b in range(4)], mul, label)


def heisenberg_group_3(label="Heis27"):
    """Upper unitriangular 3x3 matrices over F_3: order 27, exponent 3.

    Index of (a, b, c) is 9a + 3b + c; (a,b,c)*(d,e,f) = (a+d, b+e, c+f+a*e).
    """
    return _rule_group(
        [(a, b, c) for a in range(3) for b in range(3) for c in range(3)],
        lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3),
        label,
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
