"""Univariate algebra: resultants, squarefree decomposition, factorization."""

from fractions import Fraction

import pytest

from curvetorsion.fields import QQ, NumberField
from curvetorsion.nffactor import factor_over_field
from curvetorsion.qpoly import factor_rational
from curvetorsion.unipoly import (
    UniPoly,
    gcd,
    lagrange_interpolate,
    resultant,
    _zz_resultant,
    squarefree_decomposition,
    squarefree_part,
)


def P(*coeffs):
    return UniPoly(QQ, list(coeffs))


def companion_resultant(p, q):
    """Independent oracle: Res(p, q) = lc(p)^deg(q) * det(q(C_p)).

    Uses the companion matrix of p and plain fraction Gaussian elimination,
    sharing nothing with the Sylvester route.
    """
    n = p.degree
    lead = p.lc
    pm = [c / lead for c in p.coeffs]
    comp = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = Fraction(1)
    for i in range(n):
        comp[i][n - 1] = -pm[i]
    # evaluate q at the companion matrix
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in q.coeffs:
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * power[i][j]
        power = [
            [sum(power[i][k] * comp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    det = Fraction(1)
    m = [row[:] for row in acc]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return lead**q.degree * det


def test_resultant_linear_evaluation():
    assert resultant(P(-2, 0, 1), P(-1, 1)) == -1


def test_resultant_common_root_vanishes():
    p = P(-2, 0, 1)
    assert resultant(p, p) == 0
    assert resultant(P(0, 1, 1), P(0, 1)) == 0  # shared root at 0


def test_resultant_derived_value():
    p, q = P(1, 0, 1), P(-2, 0, 1)
    expected = companion_resultant(p, q)
    assert expected == 9
    assert resultant(p, q) == expected


@pytest.mark.parametrize(
    "p,q",
    [
        (P(1, 2, 3), P(4, 5)),
        (P(-1, 0, 0, 1), P(2, -3, 1)),
        (P(Fraction(1, 2), 1, 1, 1), P(5, 0, -2, 1)),
        # deg p < deg q with deg p * deg q odd: the engine must swap and fix the sign
        (P(-1, 1), P(-5, 0, 0, 1)),
        (P(3, Fraction(2, 3)), P(1, 2, 0, -1, 0, 4)),
        (P(1, 0, -2, 1), P(-1, 3, 0, 0, Fraction(1, 2), 1)),
    ],
)
def test_resultant_matches_companion_oracle(p, q):
    assert resultant(p, q) == companion_resultant(p, q)


@pytest.mark.parametrize("field", [QQ, NumberField([-2, 0, 1])], ids=["QQ", "Q(sqrt2)"])
def test_bivariate_resultant_specializes_to_the_companion_oracle(field):
    # {(y exponent, x exponent): c} with constant leading y-coefficients, so
    # setting x = x0 commutes with Res_y
    w = field.gen if field != QQ else Fraction(1, 3)
    pairs = [
        ({(1, 0): 2, (0, 2): w, (0, 0): -1}, {(3, 0): 1, (2, 1): Fraction(1, 2), (1, 0): w, (0, 3): -3}),
        ({(3, 0): Fraction(3, 2), (1, 2): w, (0, 1): 1}, {(5, 0): 1, (2, 2): -w, (0, 4): 1}),
        ({(2, 0): 1, (1, 1): w, (0, 2): -2}, {(2, 0): 1, (1, 1): w, (0, 2): -2, (0, 0): 1}),
    ]

    def at(f, x0):
        top = max(i for i, _ in f)
        cs = [field.zero] * (top + 1)
        for (i, j), c in f.items():
            cs[i] = cs[i] + field.coerce(c) * x0**j
        return UniPoly(field, cs)

    for f, g in pairs:
        res = _zz_resultant(
            {e: field.coerce(c) for e, c in f.items()}, {e: field.coerce(c) for e, c in g.items()}, field
        )
        for x0 in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3)):
            assert res.eval(field.coerce(x0)) == companion_resultant(at(f, x0), at(g, x0))


def test_resultant_both_zero_is_an_error():
    with pytest.raises(ValueError):
        resultant(UniPoly.zero(QQ), UniPoly.zero(QQ))


def test_squarefree_example():
    p = P(2, -1) * P(2, -1) * P(2, 1)  # (x-... wait keep simple below
    p = P(-1, 1) * P(-1, 1) * P(2, 1)  # (x-1)^2 (x+2)
    dec = squarefree_decomposition(p)
    assert [(f.coeffs, m) for f, m in dec] == [((Fraction(2), Fraction(1)), 1), ((Fraction(-1), Fraction(1)), 2)]
    assert squarefree_part(p) == (P(-1, 1) * P(2, 1)).monic()


def test_squarefree_of_squarefree_is_itself():
    p = P(-6, 1, 1)
    assert squarefree_part(p) == p.monic()
    assert gcd(p, p.derivative()).degree == 0


def test_squarefree_cube_pattern():
    p = P(1, 0, 0, -2, 0, 0, 1)  # x^6 - 2x^3 + 1 = (x^3 - 1)^2
    dec = squarefree_decomposition(p)
    assert dec == [(P(-1, 0, 0, 1), 2)]
    assert squarefree_part(p) == P(-1, 0, 0, 1)


def test_factor_rational_examples():
    unit, fs = factor_rational(P(-1, 0, 0, 1))  # x^3 - 1
    assert unit == 1
    assert [(f.coeffs, m) for f, m in fs] == [
        ((Fraction(-1), Fraction(1)), 1),
        ((Fraction(1), Fraction(1), Fraction(1)), 1),
    ]
    unit, fs = factor_rational(P(1, 0, 1))
    assert fs == [(P(1, 0, 1), 1)]


def test_factor_rational_reexpands():
    p = P(6, 0, -5, 0, 1)  # x^4 - 5x^2 + 6 = (x^2-2)(x^2-3)
    unit, fs = factor_rational(p)
    expected = {(P(-2, 0, 1)).coeffs, (P(-3, 0, 1)).coeffs}
    assert {f.coeffs for f, _ in fs} == expected
    prod = UniPoly.const(unit, QQ)
    for f, m in fs:
        prod = prod * f**m
    assert prod == p


def test_factor_over_number_field():
    K = NumberField([1, 1, 1])  # contains cube roots of unity
    x3m1 = UniPoly(K, [-1, 0, 0, 1])
    unit, fs = factor_over_field(x3m1)
    assert all(f.degree == 1 for f, _ in fs)
    prod = UniPoly.const(unit, K)
    for f, m in fs:
        prod = prod * f**m
    assert prod == x3m1


def test_gcd_over_number_field():
    K = NumberField([-2, 0, 1])
    t = K.gen
    p = UniPoly(K, [-t, 1]) * UniPoly(K, [1, 1])
    q = UniPoly(K, [-t, 1]) * UniPoly(K, [3, 1])
    g = gcd(p, q)
    assert g == UniPoly(K, [-t, 1])


def test_lagrange_interpolation_roundtrip():
    p = P(3, -2, 0, 5)
    pts = [(Fraction(i), p.eval(Fraction(i))) for i in range(p.degree + 1)]
    assert lagrange_interpolate(pts) == p


def test_factor_over_field_keeps_inert_factors():
    K = NumberField([-2, 0, 1])  # Q(sqrt 2)
    t = K.gen
    # (x^2 - 3)(x - t): the quadratic stays irreducible, the linear splits off
    p = UniPoly(K, [-3, 0, 1]) * UniPoly(K, [-t, 1])
    unit, fs = factor_over_field(p)
    degrees = sorted(f.degree for f, _ in fs)
    assert degrees == [1, 2]
    prod = UniPoly.const(unit, K)
    for f, m in fs:
        prod = prod * f**m
    assert prod == p
