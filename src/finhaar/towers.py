"""Finite-depth towers of groups joined by surjective homomorphisms.

Levels run from coarse to fine; the connecting map of each step sends
the finer group onto the coarser one.  Torsion measures along a tower
are non-increasing toward the fine end, which makes the last value an
upper bound for any deeper refinement.
"""

from __future__ import annotations

from .errors import NotSurjective
from .groups import _index_list, _record, check_homomorphism


@_record
class Tower:
    name: str
    levels: tuple  # FiniteGroups, coarsest first
    maps: tuple  # maps[i]: index array from levels[i+1] onto levels[i]

    @property
    def depth(self):
        return len(self.levels)


def build_tower(levels, maps, name="tower"):
    """Validate level-joining maps: index lists, total, surjective, multiplicative."""
    levels = tuple(levels)
    maps = tuple(maps)
    if len(maps) != len(levels) - 1:
        raise ValueError(
            f"{name}: {len(levels)} levels need {len(levels) - 1} maps, got {len(maps)}"
        )
    maps = tuple(
        tuple(_index_list(m, levels[i].order, f"{name}: map {i}")) for i, m in enumerate(maps)
    )
    for i, phi in enumerate(maps):
        coarse, fine = levels[i], levels[i + 1]
        if len(phi) != fine.order:
            raise ValueError(
                f"{name}: map {i} has {len(phi)} entries for a group of order {fine.order}"
            )
        if len(set(phi)) != coarse.order:
            raise NotSurjective(f"{name}: map {i} is not onto the coarse group")
        check_homomorphism(fine, coarse, phi, f"{name}: map {i}")
    return Tower(name=name, levels=levels, maps=maps)


def torsion_measure_sequence(tower, n):
    """Exact measures of the x^n = 1 sets, one per level, coarse to fine."""
    # imported here: catalog imports towers, and parsing a catalog needs
    # none of wordsets and the modules it imports
    from .wordsets import torsion_set

    return [torsion_set(G, n).measure for G in tower.levels]


def torsion_images_contained(tower, n):
    """Check that each fine torsion set maps into the coarse one."""
    from .wordsets import torsion_set

    for i, phi in enumerate(tower.maps):
        fine = torsion_set(tower.levels[i + 1], n).subset
        coarse = torsion_set(tower.levels[i], n).subset
        for x in fine.indices():
            if phi[x] not in coarse:
                return False
    return True
