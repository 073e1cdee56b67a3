"""Intersection points from the degree-1 subresultant S_1 of the y-resultant's
chain, against the fiber gcd over the root's field that `intersect` used
before (kept here as the oracle): equal y-coordinates and equal accept/reject
decisions for every factor of the resultant."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from curvetorsion import cli
from curvetorsion import curves as curves_mod
from curvetorsion.curvefile import load_curve_file
from curvetorsion.curves import (
    IDENTITY_SHEAR,
    CertificationError,
    GeometryError,
    NonRationalPointError,
    PlaneCurve,
    ShearExhaustedError,
    _factor_base,
    _root_point,
    _slice,
    draw_shear,
    intersect,
)
from curvetorsion.fields import QQ, NumberField, common_field
from curvetorsion.homopoly import HomogeneousPoly
from curvetorsion.parsing import parse_poly
from curvetorsion.unipoly import _zz_resultant, gcd

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_curves"
QI = NumberField([1, 0, 1], symbol="i")

# D: y g + R with R = x^2 y^3 + x y^2 + ... , C: g.  The chain of degrees
# 5, 4, 3, 1, 0 has a defective step 3 -> 1, and the degree-1 member has a
# leading coefficient vanishing at the root x = 0 where s_1 does not.
DEFECTIVE = (
    "y^5 + x^2*y^3 + 2*x^4*y + x*y^2*z^2 + 2*x^5 + x^3*z^2 - y^3*z^2"
    " + y^2*z^3 - 2*x*y*z^3 - 2*x*z^4 + 2*y*z^4 + z^5",
    "y^4 + 2*x^4 - y^2*z^2 + x^2*z^2 - 2*x*z^3 + y*z^3 + z^4",
)


def fiber_gcd(fa, ga, theta):
    """gcd in y of the two forms on the chart line x = theta, z = 1."""
    return gcd(fa.fiber(1, (theta, None, 1)), ga.fiber(1, (theta, None, 1)))


def decisions(f, g, shear):
    """For each factor of the y-resultant after the shear, whether S_1 gives
    its point; asserts that the fiber gcd decides alike with the same y0.
    None when the shear is rejected before the resultant."""
    field = common_field(f.field, g.field)
    fa, ga = f.to_field(field).linear_change(shear), g.to_field(field).linear_change(shear)
    if fa.coeff((0, fa.degree, 0)) == 0 or ga.coeff((0, ga.degree, 0)) == 0:
        return None
    r, s1, c = _zz_resultant(_slice(fa, 1), _slice(ga, 1), field, keep_s1=True)
    if r.is_zero():
        return None
    out = []
    for p, _ in _factor_base(r)[1]:
        if field != QQ and p.degree > 1:
            continue  # a tower: intersect refuses the input
        _, theta, y0 = _root_point(p, s1, c)
        gf = fiber_gcd(fa, ga, theta)
        assert y0 == (-gf.coeffs[0] if gf.degree == 1 else None), (p, y0, gf)
        out.append(y0 is not None)
    return out


def replay(d, c, seed=0):
    """Compare decisions on every shear `intersect` tries, up to the one it keeps."""
    div = intersect(d, c, rng_seed=seed)
    rng = random.Random(seed)
    shear, tried = IDENTITY_SHEAR, 1
    while True:
        got = decisions(d.equation, c.equation, shear)
        if shear == div.shear:
            assert got is not None and all(got)
            return div, tried
        shear, tried = draw_shear(rng), tried + 1


def sample_pairs():
    out = []
    for path in sorted(SAMPLES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "curves" not in data:
            continue
        pairs = [(dec["smooth"], name) for dec in data.get("decompositions", []) for part in dec["parts"] for name in part]
        pairs += [(tp["d"], tp["c"]) for tp in data.get("typed_pairs", [])]
        out += [(path.name, d, c) for d, c in dict.fromkeys(pairs)]
    return out


@pytest.mark.parametrize("name", sorted({name for name, _, _ in sample_pairs()}))
def test_sample_intersections_agree_with_the_fiber_gcd(name):
    cf = load_curve_file(SAMPLES / name)
    for _, d, c in (p for p in sample_pairs() if p[0] == name):
        replay(cf.curve(d), cf.curve(c))


def homogeneous(deg, coeffs, field=QQ):
    """A form of degree deg with y^deg coefficient 1 and the other terms from coeffs."""
    monos = [(i, j, deg - i - j) for i in range(deg + 1) for j in range(deg + 1 - i) if j != deg]
    terms = {(0, deg, 0): field.one}
    for mono, a in zip(monos, coeffs):
        terms[mono] = field.coerce(a) if field == QQ else field.element(a)
    return HomogeneousPoly(field, deg, terms)


small = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.lists(small, min_size=18, max_size=18), st.integers(0, 3))
def test_random_pairs_over_q(d0, d1, cs, shear_seed):
    f, g = homogeneous(d0, cs[:9]), homogeneous(d1, cs[9:])
    shear = IDENTITY_SHEAR if shear_seed == 0 else draw_shear(random.Random(shear_seed))
    decisions(f, g, shear)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.lists(st.tuples(small, small), min_size=14, max_size=14))
def test_random_pairs_over_a_quadratic_field(d0, d1, cs):
    f, g = homogeneous(d0, cs[:9], QI), homogeneous(d1, cs[9:], QI)
    decisions(f, g, IDENTITY_SHEAR)


def test_defective_chain_reads_s1_not_the_degree_one_member():
    f, g = (parse_poly(t) for t in DEFECTIVE)
    # the chain member of degree 1 has a leading coefficient divisible by x
    x, y = sympy.symbols("x y")
    prs = sympy.subresultants(*(sympy.sympify(t.replace("^", "**")).subs("z", 1) for t in DEFECTIVE), y)
    assert [sympy.degree(m, y) for m in prs] == [5, 4, 3, 1, 0]
    assert sympy.Poly(prs[3], y).LC().subs(x, 0) == 0
    # S_1 still has s_1(0) != 0, so the point over x = 0 is found at the identity shear
    assert decisions(f, g, IDENTITY_SHEAR) == [True, True]
    div, tried = replay(PlaneCurve(f, "D"), PlaneCurve(g, "C"))
    assert tried == 1 and div.degree() == 20


def test_s1_is_the_subresultant_of_the_determinant_definition():
    # S_1 = sum_k det(M_k) y^k, M_k the rows of y^(m-2) f, ..., f, y^(n-2) g, ..., g
    # on the columns of y^(n+m-2), ..., y^2 and then y^k
    x, y = sympy.symbols("x y")
    fe, ge = (sympy.Poly(sympy.sympify(t.replace("^", "**")).subs("z", 1), y) for t in DEFECTIVE)
    n, m = fe.degree(), ge.degree()
    rows = [(fe * y**k).all_coeffs() for k in range(m - 2, -1, -1)]
    rows += [(ge * y**k).all_coeffs() for k in range(n - 2, -1, -1)]
    width = n + m - 1
    rows = [[0] * (width - len(r)) + r for r in rows]
    top = [r[: width - 2] for r in rows]
    s1, c = (sympy.expand(sympy.Matrix([t + [r[width - 1 - k]] for t, r in zip(top, rows)]).det()) for k in (1, 0))
    f, g = (parse_poly(t) for t in DEFECTIVE)
    _, s1_chain, c_chain = _zz_resultant(_slice(f, 1), _slice(g, 1), QQ, keep_s1=True)
    as_expr = lambda p: sum(sympy.Rational(a.numerator, a.denominator) * x**i for i, a in enumerate(p.coeffs))
    ratio = sympy.cancel(s1 / as_expr(s1_chain))
    assert ratio.is_Rational and ratio != 0
    assert sympy.expand(c - ratio * as_expr(c_chain)) == 0


def test_points_sharing_an_x_coordinate_are_rejected_alike():
    # x^2 + y^2 = 2 z^2 and y^2 = x^2 meet in (+-1, +-1, 1): two points over each x
    d = PlaneCurve(parse_poly("x^2 + y^2 - 2*z^2"), "D")
    c = PlaneCurve(parse_poly("y^2 - x^2"), "C")
    assert decisions(d.equation, c.equation, IDENTITY_SHEAR) == [False, False]
    div, tried = replay(d, c)
    assert tried > 1 and div.degree() == 4
    # the exhausted search counts each reason
    with pytest.raises(ShearExhaustedError, match=r"\(two intersection points share an x-coordinate: 1\)"):
        intersect(d, c, max_shears=1)


@pytest.mark.parametrize(
    "d_text, c_text",
    [("x^3 + y^3 + z^3", "y - 2*x + z"), ("y - 2*x + z", "x^3 + y^3 + z^3"), ("y + x - 3*z", "2*y - x + z")],
)
def test_a_line_against_a_curve(d_text, c_text):
    d, c = PlaneCurve(parse_poly(d_text)), PlaneCurve(parse_poly(c_text))
    div, _ = replay(d, c)
    assert div.degree() == d.degree * c.degree


def test_a_wrong_y_coordinate_is_caught_by_the_checks_that_follow(monkeypatch):
    def off_by_one(p, s1, c):
        work_field, theta, y0 = _root_point(p, s1, c)
        return work_field, theta, None if y0 is None else y0 + 1

    monkeypatch.setattr(curves_mod, "_root_point", off_by_one)
    d = PlaneCurve(parse_poly("x^3 + y^3 + z^3"))
    c = PlaneCurve(parse_poly("y^2 - x*z - 3*z^2"))
    with pytest.raises((GeometryError, CertificationError)):
        intersect(d, c)


def test_generic_quartic_meets_quartic_in_one_orbit():
    cf = load_curve_file(SAMPLES / "quartic_sextic_tuple.json")
    div = intersect(cf.curve("C4"), cf.curve("B4"))
    assert [(cl.size, m) for cl, m in div.clusters] == [(16, 1)] and div.degree() == 16


TOWER = {
    "curves": [{"name": "Q", "poly": "x^2 + y^2 - 2*z^2"}, {"name": "L", "poly": "y - i*z"}],
    "field": {"generator": "i", "min_poly": "i^2 + 1"},
}


def test_a_tower_is_an_input_error_after_one_shear(tmp_path, monkeypatch):
    # x^2 = 3 on the line y = i z: the points are not rational over Q(i)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(TOWER), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "curvetorsion.cli", "intersect", str(path), "Q", "L", "--json"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr and "nonrational point" in proc.stderr
    drawn = []
    monkeypatch.setattr(curves_mod, "draw_shear", lambda rng: drawn.append(1) or draw_shear(rng))
    with pytest.raises(NonRationalPointError):
        intersect(*(load_curve_file(path).curve(n) for n in ("Q", "L")))
    assert drawn == []
    assert cli.main(["intersect", str(path), "Q", "L"]) == 3
