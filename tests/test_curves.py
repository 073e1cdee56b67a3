import contextvars
from fractions import Fraction

import pytest

from curvetorsion.curves import (
    CommonComponentError,
    GeometryError,
    PlaneCurve,
    ProjPointCluster,
    VanishesOnCurveError,
    check_smooth,
    cluster_from_point,
    intersect,
    local_param,
    order_along,
    polar_curve,
    same_points,
)
from curvetorsion.fields import QQ
from curvetorsion.homopoly import HomogeneousPoly
from curvetorsion.parsing import parse_poly
from curvetorsion.series import eval_form_on_series


def form(terms):
    return HomogeneousPoly.from_terms(terms)


FERMAT = form({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def curve(terms, name=""):
    return PlaneCurve(form(terms), name)


def test_nonreduced_equation_rejected():
    line = form({(1, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(GeometryError):
        PlaneCurve(line * line)


def test_check_smooth_fermat():
    assert check_smooth(PlaneCurve(FERMAT)).kind == "smooth"


def test_check_smooth_conic():
    assert check_smooth(curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})).kind == "smooth"


def test_nodal_cubic_witness():
    nodal = curve({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}, "nodal")
    v = check_smooth(nodal)
    assert v.kind == "singular"
    x, y, z = v.witness["point"]
    # witness is (0 : 0 : 1) projectively
    assert x == 0 and y == 0 and z != 0


def test_polar_formula():
    E = PlaneCurve(FERMAT)
    assert polar_curve(E, (1, 1, 1)) == form({(2, 0, 0): 3, (0, 2, 0): 3, (0, 0, 2): 3})
    assert polar_curve(E, (1, 0, 0)) == form({(2, 0, 0): 3})
    with pytest.raises(GeometryError):
        polar_curve(E, (0, 0, 0))


def test_intersect_transversal_line():
    d = curve({(1, 0, 1): 1, (0, 2, 0): -1}, "D")  # xz - y^2
    l = curve({(0, 1, 0): 1}, "L")
    div = intersect(d, l)
    pts = sorted(cl.normalized_center()[1] for cl, _ in div.clusters)
    assert [m for _, m in div.clusters] == [1, 1]
    assert (Fraction(1), Fraction(0), Fraction(0)) in pts
    assert (Fraction(0), Fraction(0), Fraction(1)) in pts


def test_intersect_tangent_line():
    d = curve({(0, 1, 1): 1, (2, 0, 0): -1}, "D")  # yz - x^2
    z = curve({(0, 0, 1): 1}, "Z")
    div = intersect(d, z)
    assert len(div.clusters) == 1
    cl, m = div.clusters[0]
    assert m == 2 and cl.normalized_center()[1] == (Fraction(0), Fraction(1), Fraction(0))


def test_intersect_inflectional_tangent():
    d = PlaneCurve(FERMAT, "E")
    l = curve({(1, 0, 0): 1, (0, 1, 0): 1}, "L")
    div = intersect(d, l)
    assert len(div.clusters) == 1
    cl, m = div.clusters[0]
    assert m == 3 and cl.normalized_center()[1] == (Fraction(1), Fraction(-1), Fraction(0))


def test_bezout_total_holds():
    d = curve({(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -3})
    c = curve({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -4})
    div = intersect(d, c)
    assert div.degree() == 6


def test_common_component_detected():
    d = PlaneCurve(FERMAT, "E")
    l = curve({(1, 0, 0): 1, (0, 1, 0): 1})
    prod = PlaneCurve(FERMAT * l.equation, check_reduced=False)
    with pytest.raises(CommonComponentError):
        intersect(d, prod)


def test_shear_independence_of_intersections():
    d = curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -5})
    c = curve({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (2, 0, 1): -3})
    div1 = intersect(d, c, rng_seed=1)
    div2 = intersect(d, c, rng_seed=99)
    assert div1.multiplicities() == div2.multiplicities()
    # the divisors agree as point sets with multiplicity after un-shearing
    for cl, m in div1.clusters:
        idx = div2.find(cl)
        assert idx is not None and div2.clusters[idx][1] == m


def test_local_param_parabola():
    d = curve({(0, 1, 1): 1, (2, 0, 0): -1}, "D")  # yz - x^2, chart z = 1: y = x^2
    cl = cluster_from_point((0, 0, 1), curve=d)
    p = local_param(d, cl, order=4)
    sx, sy, sz = p.chart_series()
    # the branch satisfies the curve to the requested order
    fa = d.equation.linear_change(cl.shear)
    assert eval_form_on_series(fa, sx, sy, sz).valuation() is None


def test_local_param_order_zero_is_center():
    d = curve({(0, 1, 1): 1, (2, 0, 0): -1}, "D")
    cl = cluster_from_point((0, 0, 1), curve=d)
    p = local_param(d, cl, order=0)
    assert p.y_coeffs == (Fraction(0),)


def test_order_along_examples():
    d = curve({(0, 1, 1): 1, (2, 0, 0): -1}, "D")
    cl = cluster_from_point((0, 0, 1), curve=d)
    assert order_along(d, cl, form({(0, 1, 0): 1}), cap=5) == 2
    assert order_along(d, cl, form({(1, 0, 0): 1, (0, 0, 1): 1}), cap=5) == 0
    e = PlaneCurve(FERMAT, "E")
    cle = cluster_from_point((1, -1, 0), curve=e)
    assert order_along(e, cle, form({(1, 0, 0): 1, (0, 1, 0): 1}), cap=5) == 3


def test_order_along_vanishing_flag():
    e = PlaneCurve(FERMAT, "E")
    cle = cluster_from_point((1, -1, 0), curve=e)
    line = form({(1, 0, 0): 1, (0, 1, 0): 1})
    with pytest.raises(VanishesOnCurveError):
        order_along(e, cle, FERMAT * line, cap=5)


def test_order_along_sums_to_bezout():
    d = curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -5})
    h = form({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (2, 0, 1): -3})
    div = intersect(d, PlaneCurve(h, check_reduced=False))
    total = 0
    for cl, _ in div.clusters:
        total += cl.size * order_along(d, cl, h, cap=8)
    assert total == d.degree * h.degree


def test_cluster_equality_under_different_presentations():
    d = PlaneCurve(FERMAT, "E")
    c = curve({(2, 0, 0): 1, (0, 1, 1): 1}, "C")
    a = intersect(d, c, rng_seed=5)
    b = intersect(d, c, rng_seed=23)
    for cl, _ in a.clusters:
        assert b.find(cl) is not None


def test_same_points_distinguishes():
    p1 = cluster_from_point((1, 2, 1))
    p2 = cluster_from_point((1, 2, 1))
    p3 = cluster_from_point((1, 3, 1))
    assert same_points(p1, p2)
    assert not same_points(p1, p3)


def test_polar_never_vanishes_on_smooth_curves():
    # Euler's relation: a vanishing polar would force a singular point
    e = PlaneCurve(FERMAT, "E")
    for p in [(1, 1, 1), (1, 0, 0), (0, 1, 0), (2, -3, 5)]:
        assert not polar_curve(e, p).is_zero()


def test_local_param_on_fermat_inflection():
    e = PlaneCurve(FERMAT, "E")
    cl = cluster_from_point((1, -1, 0), curve=e)
    p = local_param(e, cl, order=7)  # raises if re-substitution fails
    sx, sy, sz = p.original_series()
    # the original coordinates trace a genuine branch through (1 : -1 : 0)
    assert (sx.coeff(0), sy.coeff(0), sz.coeff(0)) == (1, -1, 0)


def test_crossing_lines_are_singular():
    crossing = PlaneCurve(
        form({(1, 1, 0): 1}), "xy", check_reduced=False
    )
    v = check_smooth(crossing)
    assert v.kind == "singular"
    x, y, z = v.witness["point"]
    assert x == 0 and y == 0 and z != 0


def test_witness_over_a_repeated_nonlinear_discriminant_factor():
    # the two singular points (+-sqrt2 : 1 : 0) form one Galois orbit, so the
    # witness lives over a quadratic field
    quartic = PlaneCurve(parse_poly("(x^2 - 2*y^2)^2 + z^3*x"))
    v = check_smooth(quartic)
    assert v.kind == "singular"
    field, point = v.witness["field"], v.witness["point"]
    assert field.degree == 2
    f = quartic.equation.to_field(field)
    assert all(field.is_zero(f.diff(i).eval(point)) for i in range(3))


def _fresh(fn, *args):
    """fn(*args) outside every cache scope."""
    return contextvars.Context().run(fn, *args)


def test_cached_branch_is_truncated_or_relifted_like_a_fresh_lift(geometry_cache):
    e = PlaneCurve(FERMAT, "E")
    c = curve({(2, 0, 0): 1, (0, 1, 1): 1}, "C")
    cl = next(cl for cl, _ in intersect(e, c, rng_seed=5).clusters if cl.size > 1)
    # an equal cluster built anew: the cache is keyed by value, not identity
    twin = ProjPointCluster(cl.base_field, cl.x_minpoly, cl.y_rep, cl.shear)
    local_param(e, cl, 9)
    hits = geometry_cache.hits["branches"]
    assert local_param(e, twin, 4).y_coeffs == _fresh(local_param, e, twin, 4).y_coeffs
    assert geometry_cache.hits["branches"] == hits + 1
    assert local_param(e, twin, 12).y_coeffs == _fresh(local_param, e, twin, 12).y_coeffs
    local_param(e, cl, 12)  # the longer lift replaced the stored branch
    assert geometry_cache.hits["branches"] == hits + 2


def test_only_certified_verdicts_are_cached(geometry_cache):
    e = PlaneCurve(FERMAT, "E")
    assert check_smooth(e, trials=0).kind == "unknown"
    assert e.equation not in geometry_cache.verdicts
    assert check_smooth(e).is_smooth
    served = check_smooth(e, trials=0)
    assert served.is_smooth and served.trials_used == 0
    assert geometry_cache.hits["verdicts"] == 1


def test_cached_intersection_carries_the_callers_curves(geometry_cache):
    d = curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -5}, "D")
    c = curve({(3, 0, 0): 1, (0, 3, 0): 2, (0, 0, 3): 1, (2, 0, 1): -3}, "C")
    first = intersect(d, c, rng_seed=1)
    again = intersect(PlaneCurve(d.equation, "D2"), c, rng_seed=1)
    assert geometry_cache.hits["intersections"] == 1
    assert again.on_curve.name == "D2"
    assert again.clusters == first.clusters
