"""Property-based checks of the exact-arithmetic invariants."""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd as igcd, prod

from hypothesis import example, given, settings, strategies as st

from curvetorsion.fields import QQ
from curvetorsion.homopoly import HomogeneousPoly, monomials
from curvetorsion.linalg import hermite_normal_form, kernel_basis, row_echelon, smith_normal_form
from curvetorsion.parsing import parse_poly
from curvetorsion.qpoly import factor_rational
from curvetorsion.unipoly import UniPoly, gcd, resultant

small_int = st.integers(min_value=-9, max_value=9)


def upoly(min_deg=0, max_deg=4):
    return st.lists(small_int, min_size=min_deg + 1, max_size=max_deg + 1).map(
        lambda cs: UniPoly(QQ, cs)
    )


@settings(max_examples=60, deadline=None)
@given(upoly(1, 3), upoly(1, 3), upoly(0, 2))
def test_resultant_vanishes_iff_common_factor(a, b, c):
    if a.is_zero() or b.is_zero():
        return
    p, q = a * c, b * c
    if p.is_zero() or q.is_zero():
        return
    g = gcd(p, q)
    r = resultant(p, q)
    assert (r == 0) == (g.degree > 0)


@settings(max_examples=40, deadline=None)
@given(upoly(1, 5))
def test_factorization_reexpands(p):
    if p.is_zero():
        return
    unit, factors = factor_rational(p)
    prod = UniPoly.const(unit, QQ)
    for f, m in factors:
        assert f.lc == 1
        prod = prod * f**m
    assert prod == p


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda nc: st.lists(
        st.lists(small_int, min_size=nc, max_size=nc), min_size=1, max_size=4
    )
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_vectors_annihilate(m):
    nc = len(m[0])
    basis = kernel_basis(m, nc, QQ)
    assert len(row_echelon(m, QQ)[1]) + len(basis) == nc
    for v in basis:
        for row in m:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def minor_gcd(m, i):
    """gcd of all i x i minors of m, each by the Leibniz formula."""

    def det(a):
        return sum(
            (-1) ** sum(p[r] > p[s] for r, s in combinations(range(i), 2))
            * prod(a[r][p[r]] for r in range(i))
            for p in permutations(range(i))
        )

    return igcd(
        *(
            det([[m[r][c] for c in cols] for r in rows])
            for rows in combinations(range(len(m)), i)
            for cols in combinations(range(len(m[0])), i)
        )
    )


@settings(max_examples=40, deadline=None)
@given(matrices)
@example([[2, 0], [0, 2], [1, 1]])
@example([[2, 0], [0, 2]])
@example([[6]])
def test_smith_factors_are_ratios_of_minor_gcds(m):
    factors = smith_normal_form(m)
    assert len(factors) == min(len(m), len(m[0]))
    for i in range(1, len(factors) + 1):
        assert prod(factors[:i]) == minor_gcd(m, i)
    for a, b in zip(factors, factors[1:]):
        assert a >= 0 and (b % a == 0 if a else b == 0)


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_hermite_form_is_canonical_and_spans_the_rows(m):
    nc = len(m[0])
    h = hermite_normal_form(m, nc)
    pivots = [next(c for c, x in enumerate(row) if x) for row in h]
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert h[r][c] > 0
        assert all(0 <= h[above][c] < h[r][c] for above in range(r))
    # integer back-substitution reduces every input row to zero
    for row in m:
        v = list(row)
        for hr, c in zip(h, pivots):
            assert all(x == 0 for x in v[:c]) and v[c] % hr[c] == 0
            q = v[c] // hr[c]
            v = [a - q * b for a, b in zip(v, hr)]
        assert not any(v)
    rank = max((i for i in range(1, min(len(m), nc) + 1) if minor_gcd(m, i)), default=0)
    assert len(h) == rank
    if rank == nc:
        assert prod(hr[c] for hr, c in zip(h, pivots)) == minor_gcd(m, nc)


def hpoly(degree):
    monos = monomials(degree)
    return st.lists(small_int, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: HomogeneousPoly(QQ, degree, dict(zip(monos, map(Fraction, cs))))
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(hpoly))
def test_parser_roundtrip(p):
    if p.is_zero():
        return
    assert parse_poly(p.text()) == p


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=2),
)
def test_exponent_vectors_properties(n, degrees):
    from math import gcd as igcd

    from curvetorsion.covers import canonical_exponent, exponent_vectors

    theta = exponent_vectors(n, tuple(degrees))
    for a in theta.representatives:
        assert sum(x * d for x, d in zip(a, degrees)) % n == 0
        g = 0
        for x in a:
            g = igcd(g, x)
        assert igcd(g, n) == 1
        # representatives are fixed points of the canonical map
        assert canonical_exponent(n, a) == a
        for l in range(1, n):
            if igcd(l, n) == 1:
                assert canonical_exponent(n, tuple((l * x) % n for x in a)) == a


@settings(max_examples=25, deadline=None)
@given(small_int, small_int, small_int, small_int)
def test_local_param_resubstitution(b, c, d, e):
    # conics through (0 : 0 : 1); local_param certifies f(branch) = 0 exactly
    from curvetorsion.curves import (
        GeometryError,
        PlaneCurve,
        check_smooth,
        cluster_from_point,
        local_param,
    )

    terms = {(1, 1, 0): b, (2, 0, 0): c, (0, 2, 0): e, (1, 0, 1): d, (0, 1, 1): 1}
    try:
        curve = PlaneCurve(HomogeneousPoly.from_terms(terms))
    except (ValueError, GeometryError):
        return
    if not check_smooth(curve).is_smooth:
        return
    cl = cluster_from_point((0, 0, 1), curve=curve)
    param = local_param(curve, cl, order=6)  # raises if re-substitution fails
    assert len(param.y_coeffs) == 7


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=3))
def test_intersection_bezout_total(seed, degree):
    from curvetorsion.construct import rand_form
    from curvetorsion.curves import (
        CommonComponentError,
        GeometryError,
        PlaneCurve,
        check_smooth,
        intersect,
    )
    import random

    rng = random.Random(seed)
    try:
        d = PlaneCurve(rand_form(2, rng))
        c = PlaneCurve(rand_form(degree, rng))
    except GeometryError:
        return
    if not check_smooth(d).is_smooth:
        return
    try:
        div = intersect(d, c, rng_seed=seed)
    except (CommonComponentError, GeometryError):
        return
    assert div.degree() == d.degree * c.degree
