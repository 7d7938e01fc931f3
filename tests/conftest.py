pytest_plugins = ["pytester"]

import pytest

from finhaar.groups import (
    cyclic_group,
    dihedral_group,
    heisenberg_group_3,
    quaternion_group,
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
