import pytest

from schubertcalc import named, perm_to_element


@pytest.fixture(scope="session")
def a1():
    return named("A1")


@pytest.fixture(scope="session")
def s3():
    return named("A2")


@pytest.fixture(scope="session")
def s4():
    return named("A3")


@pytest.fixture(scope="session")
def s5():
    return named("A4")


@pytest.fixture(scope="session")
def s6():
    return named("A5")


@pytest.fixture(scope="session")
def b2():
    return named("B2")


@pytest.fixture(scope="session")
def g2():
    return named("G2")


def perm(rs, digits: str):
    """Element of a type A fixture from a digit string like '2413'."""
    return perm_to_element(rs, tuple(int(c) for c in digits))


def e8_cartan():
    """Cartan matrix of E8 in Bourbaki numbering (node 2 hangs off node 4)."""
    a = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a
