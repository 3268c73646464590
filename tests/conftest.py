import pytest

from law_oracle import multiplicative_law

from arithjet.characters import psi_basis, rank_table, solve_delta_characters
from arithjet.fgl import formal_group_from_weierstrass
from arithjet.ring import BaseRingSpec

N_DESK = 6


@pytest.fixture(scope="session")
def spec2():
    return BaseRingSpec(p=2, e=1)


@pytest.fixture(scope="session")
def spec3():
    return BaseRingSpec(p=3, e=1)


@pytest.fixture(scope="session")
def spec5():
    return BaseRingSpec(p=5, e=1)


@pytest.fixture(scope="session")
def curve5(spec5):
    """y^2 = x^3 + x + 1 over Z5 (ordinary, a_5 = -3), D = 27."""
    prec = N_DESK + 4
    return formal_group_from_weierstrass(
        spec5, spec5.scalar(1, prec), spec5.scalar(1, prec), 27)


@pytest.fixture(scope="session")
def curve5_ss(spec5):
    """y^2 = x^3 + 1 over Z5 (supersingular, a_5 = 0), D = 27."""
    prec = N_DESK + 4
    return formal_group_from_weierstrass(
        spec5, spec5.scalar(0, prec), spec5.scalar(1, prec), 27)


@pytest.fixture(scope="session")
def mult5(spec5):
    return multiplicative_law(spec5, 27, N_DESK + 2)


@pytest.fixture(scope="session")
def theta2_5(curve5):
    chars, rank = solve_delta_characters(curve5, 2)
    assert rank >= 1
    return chars[0]


@pytest.fixture(scope="session")
def psis2_5(curve5):
    return psi_basis(curve5, 2)


@pytest.fixture(scope="session")
def psis3_5(curve5):
    return psi_basis(curve5, 3)


@pytest.fixture(scope="session")
def table5(curve5):
    return rank_table(curve5, 3)
