from fractions import Fraction

import pytest

from curvetorsion.curves import PlaneCurve, cluster_from_point, intersect
from curvetorsion.homopoly import HomogeneousPoly
from curvetorsion.picard import (
    DivisorClass,
    PicardContext,
    PicardError,
    class_of_decomposition,
    is_principal,
    torsion_order,
)


def form(terms):
    return HomogeneousPoly.from_terms(terms)


FERMAT = form({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


@pytest.fixture(scope="module")
def ctx():
    return PicardContext(PlaneCurve(FERMAT, "E"))


def infl(ctx, pt):
    return cluster_from_point(pt, curve=ctx.d)


def test_singular_curve_rejected():
    nodal = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}))
    with pytest.raises(PicardError):
        PicardContext(nodal)


def test_collinear_inflections_principal(ctx):
    pts = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    cls = DivisorClass(ctx, [(infl(ctx, p), 1) for p in pts], 1)
    res = is_principal(cls)
    assert res.principal
    assert res.witness.normalized() == form({(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


def test_non_integral_multiple_is_an_error(ctx):
    cls = DivisorClass(ctx, [(infl(ctx, (1, -1, 0)), 1)], Fraction(1, 3))
    with pytest.raises(PicardError):
        is_principal(cls)


def test_own_section_is_principal_with_defining_witness(ctx):
    line = PlaneCurve(form({(1, 0, 0): 1, (0, 1, 0): 1}), "L")
    div = intersect(ctx.d, line)
    cls = DivisorClass(ctx, [(cl, m) for cl, m in div.clusters], 1)
    res = is_principal(cls)
    assert res.principal
    assert res.witness.normalized() == line.equation.normalized()


def test_zero_class_is_principal(ctx):
    cls = DivisorClass(ctx, [], 0)
    assert is_principal(cls).principal


def test_degree_mismatch_rejected(ctx):
    with pytest.raises(PicardError):
        DivisorClass(ctx, [(infl(ctx, (1, -1, 0)), 1)], 1)


def test_off_curve_cluster_rejected(ctx):
    with pytest.raises(PicardError):
        DivisorClass(ctx, [(cluster_from_point((1, 1, 1)), 3)], 1)


def test_decomposition_class_single_inflection(ctx):
    line = PlaneCurve(form({(1, 0, 0): 1, (0, 1, 0): 1}), "L")
    cls = class_of_decomposition(ctx, line, 3)
    assert cls.o_multiple == Fraction(1, 3)
    assert [(cl.size, m) for cl, m in cls.effective] == [(1, 1)]
    res = torsion_order(cls, 3)
    assert res.order == 3


def test_wrong_n_flagged(ctx):
    conic = PlaneCurve(form({(2, 0, 0): 1, (0, 1, 1): 1}), "C")
    with pytest.raises(PicardError):
        class_of_decomposition(ctx, conic, 2)  # transversal-ish data not divisible by 2


def test_monotonicity_of_principality(ctx):
    # once principal, every further multiple stays principal
    pts = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    cls = DivisorClass(ctx, [(infl(ctx, p), 1) for p in pts], 1)
    assert is_principal(cls).principal
    assert is_principal(cls.scale(2)).principal
    assert is_principal(cls.scale(3)).principal


def test_torsion_order_skips_non_integral_multiples(ctx):
    line = PlaneCurve(form({(1, 0, 0): 1, (0, 1, 0): 1}), "L")
    cls = class_of_decomposition(ctx, line, 3)
    res = torsion_order(cls, 3)
    assert (1, "not integral") in res.tested
    assert res.order == 3


def test_class_addition_merges_clusters(ctx):
    a = DivisorClass(ctx, [(infl(ctx, (1, -1, 0)), 1)], Fraction(1, 3))
    b = DivisorClass(ctx, [(infl(ctx, (1, -1, 0)), 2)], Fraction(2, 3))
    s = a.add(b)
    assert len(s.effective) == 1
    assert s.effective[0][1] == 3
    assert s.o_multiple == 1


def test_quartic_cutting_triple_points(pair_4663):
    # on the pipeline cubic, the constructed quartic cuts 3(P1+P2+P3+P4),
    # so its decomposition class at n = 3 is the sum of the four base points
    from curvetorsion.homopoly import HomogeneousPoly

    e = PlaneCurve(
        HomogeneousPoly.from_terms({(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}), "E3"
    )
    ctx3 = PicardContext(e)
    cls = class_of_decomposition(ctx3, pair_4663.d, 3)
    assert cls.o_multiple == Fraction(4, 3)
    assert sorted(cl.size for cl, m in cls.effective for _ in range(m)) == [1, 1, 1, 1]


def test_from_divisor_needs_n_to_divide_every_multiplicity(ctx):
    flex_tangent = PlaneCurve(form({(1, 0, 0): 1, (0, 1, 0): 1}), "T")  # meets E triply at (1, -1, 0)
    divisor = intersect(ctx.d, flex_tangent)
    cls = DivisorClass.from_divisor(ctx, divisor, 3)
    assert [m for _, m in cls.effective] == [1] and cls.o_multiple == Fraction(1, 3)
    with pytest.raises(PicardError):
        DivisorClass.from_divisor(ctx, divisor, 2)


def test_trusted_part_classes_equal_the_merging_constructor(ctx):
    conic = PlaneCurve(form({(2, 0, 0): 1, (0, 1, 1): 1}), "C")
    divisor = intersect(ctx.d, conic)
    for n in (1, 2, 3):
        cls = DivisorClass.from_divisor(ctx, divisor, 1).scale(n)
        merged = DivisorClass(ctx, [(cl, m * n) for cl, m in divisor.clusters], 2 * n)
        assert cls.effective == merged.effective and cls.o_multiple == merged.o_multiple
    assert DivisorClass.from_divisor(ctx, divisor, 1).scale(0).effective == ()
    with pytest.raises(PicardError):
        DivisorClass._trusted(ctx, [(cl, m) for cl, m in divisor.clusters], 1)  # degree 6 != 3
