"""Shared fixtures, and the table arithmetic the tests check finhaar with.

Reference answers come from ``oracles``, the benchmark's oracle module
(``bench/oracles.py``, on the path through pytest's ``pythonpath``
setting).  It works on plain Cayley tables and imports nothing from
finhaar.  ``Arithmetic`` below reads products, commutators and
translates off such a table, with its identity and inverses from
``oracles``.
"""

pytest_plugins = ["pytester"]

import oracles
import pytest

from finhaar.catalog import bundled_catalog
from finhaar.families import (
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    quaternion_group,
    semidirect_c3,
    symmetric_group,
)

# Breadth-first indexing of S3 generated by (0 1) and (0 1 2):
#   0: e, 1: (0 1), 2: (0 1 2), 3: (1 2), 4: (0 2), 5: (0 2 1)
S3_ELEMS = [
    (0, 1, 2),
    (1, 0, 2),
    (1, 2, 0),
    (0, 2, 1),
    (2, 1, 0),
    (2, 0, 1),
]
S3_TRANSPOSITIONS = (1, 3, 4)
S3_THREE_CYCLES = (2, 5)
S3_CYCLIC = (0, 2, 5)

# (0 1 2) and (0 1 2 3 4) generate the alternating group A5
A5_GENS = [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]


def heis27_rtimes_c3():
    """Heis27 ⋊ C3 twisted by the catalog's conj-x (order 81), built
    afresh on each call, so that no lattice is cached between tests."""
    heis = bundled_catalog().get("Heis27")
    return semidirect_c3(heis.group, heis.automorphisms["conj-x"], label="Heis27:conj-x")


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def z7():
    return cyclic_group(7)


@pytest.fixture(scope="session")
def z9():
    return cyclic_group(9)


@pytest.fixture(scope="session")
def d8():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


@pytest.fixture(scope="session")
def heis27():
    return heisenberg_group_3()


def greedy_generators(table):
    """Each element, in index order, outside the closure of those kept
    before it: the rule finhaar's ``FiniteGroup.generators`` follows."""
    e = oracles.identity_of(table)
    kept, closure = [], {e}
    for x in range(len(table)):
        if x not in closure:
            kept.append(x)
            closure = oracles.closure(table, kept, e)
    return tuple(kept)


class Arithmetic:
    """Products, inverses and left translates read off a Cayley table."""

    def __init__(self, table):
        self.t = table
        self.e = oracles.identity_of(table)
        self.inv = oracles.inverses(table)

    def mul(self, *xs):
        out = self.e
        for x in xs:
            out = self.t[out][x]
        return out

    def comm(self, x, y):
        return oracles.commutator(self.t, self.inv, x, y)

    def translate(self, c, A):
        """The left translate cA."""
        return oracles.left_translate(self.t, c, A)
