import pytest

from curvetorsion import (
    GeometryCache,
    HomogeneousPoly,
    PlaneCurve,
    artal_arrangement,
    build_type_4663,
    power_of_k,
    tangent_quadruple_arrangements,
    transversal_seed,
)


def form(terms):
    return HomogeneousPoly.from_terms(terms)


@pytest.fixture(autouse=True)
def geometry_cache():
    """Every test runs inside its own cache scope, as each CLI request does."""
    with GeometryCache() as cache:
        yield cache


@pytest.fixture(scope="session")
def fermat():
    return PlaneCurve(form({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), "E")


@pytest.fixture(scope="session")
def artal_pair(fermat):
    return (
        artal_arrangement(fermat, collinear=True),
        artal_arrangement(fermat, collinear=False),
    )


@pytest.fixture(scope="session")
def tangent_pair():
    return tangent_quadruple_arrangements()


@pytest.fixture(scope="session")
def chain_4661():
    seed = transversal_seed(1, 4, rng_seed=11)
    return seed, power_of_k(seed, 6, rng_seed=7)


@pytest.fixture(scope="session")
def chain_4662():
    seed = transversal_seed(2, 2, rng_seed=3)
    mid = power_of_k(seed, 2, rng_seed=5)
    return seed, mid, power_of_k(mid, 3, rng_seed=9)


@pytest.fixture(scope="session")
def pair_4663():
    return build_type_4663(rng_seed=1)
