from fractions import Fraction

import pytest

from curvetorsion.construct import (
    ConstructionError,
    artal_arrangement,
    tangent_lines_through,
    verify_type,
)
from curvetorsion.covers import relation_lattice
from curvetorsion.curves import PlaneCurve, check_smooth
from curvetorsion.elliptic import EllipticChart
from curvetorsion.fields import QQ
from curvetorsion.homopoly import HomogeneousPoly


def form(terms):
    return HomogeneousPoly.from_terms(terms)


def test_transversal_seed_types(chain_4661, chain_4662):
    seed14, _ = chain_4661
    assert seed14.type_tuple == (1, 4, 1, 1)
    seed22, _, _ = chain_4662
    assert seed22.type_tuple == (2, 2, 1, 1)


def test_power_chain_4661(chain_4661):
    _, pair = chain_4661
    assert pair.type_tuple == (4, 6, 6, 1)
    assert check_smooth(pair.c).is_smooth


def test_power_chain_4662(chain_4662):
    seed, mid, final = chain_4662
    assert mid.type_tuple == (2, 4, 2, 1)
    assert final.type_tuple == (4, 6, 6, 2)


def test_power_of_k_precondition():
    from curvetorsion.construct import power_of_k, transversal_seed

    seed = transversal_seed(1, 4, rng_seed=11)
    with pytest.raises(ConstructionError):
        power_of_k(seed, 3, rng_seed=0)  # 3 * 1 < 4


def test_verified_pairs_reverify(chain_4661, pair_4663):
    _, pair = chain_4661
    rep = verify_type(pair.d, pair.c, rng_seed=123)
    assert rep.ok and (rep.n, rep.nu) == (6, 1)
    rep3 = verify_type(pair_4663.d, pair_4663.c, rng_seed=321)
    assert rep3.ok and (rep3.n, rep3.nu) == (6, 3)


def test_verify_type_rejects_mixed_multiplicities():
    # a cubic with one of its simple (non-inflection) tangent lines has
    # local numbers 2 and 1
    e = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}), "E1")
    chart = EllipticChart(e, (0, 1, 0))
    lines = tangent_lines_through(e, (2, 3, 1))
    line = PlaneCurve(lines[0].line.normalized() if lines[0].line.field == QQ else lines[0].line, "t", check_reduced=False)
    rep = verify_type(line, e)
    assert not rep.ok
    assert any("multiplicities not constant" in f for f in rep.failures)


def test_verify_type_rejects_singular_member():
    nodal = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}), "nodal")
    line = PlaneCurve(form({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), "l")
    rep = verify_type(line, nodal)
    assert not rep.ok
    assert any("not certified smooth" in f for f in rep.failures)


def test_artal_collinear_witnesses(fermat, artal_pair):
    dec1, dec2 = artal_pair
    assert dec1.n == dec2.n == 3
    assert dec1.order_tuple() == (1,)
    assert dec2.order_tuple() == (3,)
    # the collinear triple's tangent lines are the rational inflection tangents
    names = {c.equation.normalized().text() for c in dec1.parts[0].components}
    assert names == {"x + y", "y + z", "x + z"}


def test_artal_noncollinear_uses_conjugate_pair(artal_pair):
    _, dec2 = artal_pair
    comps = dec2.parts[0].components
    fields = [c.field for c in comps]
    assert sum(1 for f in fields if f == QQ) == 1
    assert sum(1 for f in fields if f != QQ) == 2
    # the Galois-stable product is a rational cubic
    eq = dec2.parts[0].equation_over_q()
    assert eq.field == QQ and eq.degree == 3


def test_artal_rejects_non_cubic():
    conic = PlaneCurve(form({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}), "C")
    with pytest.raises(ConstructionError):
        artal_arrangement(conic, collinear=True)


def test_tangent_lines_through_rational_model():
    e = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 36}), "E")
    chart = EllipticChart(e, (0, 1, 0))
    q0 = (Fraction(-3), Fraction(9), Fraction(1))
    p1 = chart.neg(chart.mul(2, q0))
    tls = tangent_lines_through(e, p1)
    assert len(tls) == 4
    assert all(t.tangency_cluster.size == 1 for t in tls)
    expected = {chart.add(q0, t) for t in [chart.origin, (0, 0, 1), (6, 0, 1), (-6, 0, 1)]}
    got = {t.tangency_cluster.normalized_center()[1] for t in tls}
    assert {tuple(map(Fraction, p)) for p in expected} == got


def test_tangent_lines_through_conjugate_tangencies():
    # on y^2 z = x^3 + z^3 the point (2, 3) is not halvable over Q, so all
    # four tangency points are irrational and come back as proper clusters
    e = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}), "E1")
    tls = tangent_lines_through(e, (2, 3, 1))
    assert sum(t.tangency_cluster.size for t in tls) == 4
    assert all(t.tangency_cluster.size > 1 for t in tls)


def test_tangent_lines_inflection_rejected():
    e = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}), "E1")
    with pytest.raises(ConstructionError):
        tangent_lines_through(e, (0, 1, 1))  # a 3-torsion point is an inflection


def test_tangent_quadruple_groups(tangent_pair):
    deq, ddf = tangent_pair
    assert relation_lattice(deq).invariant_factors == (1, 2)
    assert relation_lattice(ddf).invariant_factors == (2, 2)


def test_4663_obstructions(pair_4663):
    assert pair_4663.type_tuple == (4, 6, 6, 3)
    kinds = [s.kind for s in pair_4663.provenance]
    assert "obstructions" in kinds


def test_provenance_replayability():
    from curvetorsion.construct import transversal_seed

    a = transversal_seed(2, 2, rng_seed=3)
    b = transversal_seed(2, 2, rng_seed=3)
    assert a.d.equation == b.d.equation and a.c.equation == b.c.equation


def test_verify_type_over_number_field():
    # a line and a conic over Q(sqrt 2) meeting at two rational points of the
    # field: the whole pipeline (intersection, principality, witnesses) runs
    # over the number field base
    from curvetorsion.fields import NumberField
    from curvetorsion.homopoly import HomogeneousPoly

    K = NumberField([-2, 0, 1], symbol="s")
    t = K.gen
    line = PlaneCurve(
        HomogeneousPoly(K, 1, {(1, 0, 0): K.one, (0, 0, 1): -t}), "L"
    )
    conic = PlaneCurve(
        HomogeneousPoly(K, 2, {(2, 0, 0): K.one, (0, 2, 0): K.one, (0, 0, 2): K.coerce(-3)}),
        "C",
    )
    rep = verify_type(line, conic)
    assert rep.ok and (rep.n, rep.nu) == (1, 1)


def test_number_field_tower_rejected():
    # intersection points generating a further extension of the base field
    # are refused as an input error naming the reason
    from curvetorsion.curves import NonRationalPointError, intersect
    from curvetorsion.fields import NumberField
    from curvetorsion.homopoly import HomogeneousPoly

    K = NumberField([-2, 0, 1], symbol="s")
    t = K.gen
    line = PlaneCurve(HomogeneousPoly(K, 1, {(1, 0, 0): K.one, (0, 0, 1): -t}), "L")
    fermat = PlaneCurve(
        HomogeneousPoly.from_terms({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), "E"
    )
    with pytest.raises(NonRationalPointError) as e:
        intersect(line, fermat, max_shears=3)
    assert "nonrational point over a number field base" in str(e.value)
