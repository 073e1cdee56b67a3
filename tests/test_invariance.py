"""The paper's invariants do not depend on coordinates or on the program seed.

Each decomposition of the cubic sample files (the Fermat 3-Artal pair and the
tangent quadruples) is moved by its own random invertible integer matrix; n,
the order tuples, the invariant factors and the certify verdict must stay as
they are, and so must they under a change of the program seed.
"""

import random
from pathlib import Path

import pytest

from curvetorsion import PlaneCurve, certify, relation_lattice
from curvetorsion.covers import Decomposition, Part, permuted_lattice_hnf
from curvetorsion.curvefile import load_curve_file
from curvetorsion.linalg import det3

SAMPLES = Path(__file__).resolve().parent.parent / "sample_curves"
CUBIC_FILES = [("fermat_artal_pair.json", 11), ("tangent_quadruples.json", 12)]


def invertible_matrix(rng):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if det3(m) != 0:
            return m


def moved(dec, matrix, seed):
    def move(c):
        return PlaneCurve(c.equation.linear_change(matrix), c.name)

    parts = [Part(tuple(move(c) for c in p.components), p.name) for p in dec.parts]
    return Decomposition(move(dec.d), parts, rng_seed=seed, name=dec.name)


def answers(decs, seed):
    per_dec = [(dec.n, dec.order_tuple(), tuple(relation_lattice(dec).invariant_factors)) for dec in decs]
    return per_dec, certify(decs[0], decs[1], rng_seed=seed).verdict


@pytest.mark.parametrize("name,matrix_seed", CUBIC_FILES)
def test_answers_are_projectively_invariant(name, matrix_seed):
    cf = load_curve_file(SAMPLES / name)
    decs = [cf.decomposition(spec.name) for spec in cf.decompositions]
    want = answers(decs, 0)
    assert want[1] == "ZariskiPair"
    rng = random.Random(matrix_seed)
    for _ in range(3):
        movers = [moved(dec, invertible_matrix(rng), 0) for dec in decs]
        assert all(m.d.equation != dec.d.equation for m, dec in zip(movers, decs))
        assert answers(movers, 0) == want


@pytest.mark.parametrize("name", [n for n, _ in CUBIC_FILES])
def test_answers_do_not_depend_on_the_seed(name):
    cf = load_curve_file(SAMPLES / name)
    runs = []
    for seed in (0, 29):
        decs = [cf.decomposition(spec.name, rng_seed=seed) for spec in cf.decompositions]
        runs.append(answers(decs, seed))
    assert runs[0] == runs[1]


def test_swapping_the_parts_permutes_the_answers():
    cf = load_curve_file(SAMPLES / "tangent_quadruples.json")
    for spec in cf.decompositions:
        dec = cf.decomposition(spec.name)
        swapped = Decomposition(dec.d, [dec.parts[1], dec.parts[0]], name=dec.name)
        assert swapped.order_tuple() == dec.order_tuple()[::-1]
        lat, lat_swapped = relation_lattice(dec), relation_lattice(swapped)
        assert lat_swapped.hnf == permuted_lattice_hnf(lat, (1, 0))
        assert lat_swapped.invariant_factors == lat.invariant_factors
