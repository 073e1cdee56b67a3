from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvetorsion.fields import QQ, NumberField
from curvetorsion.homopoly import HomogeneousPoly, euler_check, hessian_det, monomials
from curvetorsion.linalg import cross3, det3
from curvetorsion.unipoly import UniPoly


def form(terms):
    return HomogeneousPoly.from_terms(terms)


FERMAT = form({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def test_mixed_degaccording_rejected():
    with pytest.raises(ValueError):
        form({(2, 0, 0): 1, (0, 1, 0): 1})


def test_zero_form_is_canonical():
    z = form({(2, 0, 0): 1}) - form({(2, 0, 0): 1})
    assert z.is_zero() and z.degree == 0 and z.terms == {}


def test_monomial_count():
    assert len(monomials(4)) == 15
    assert monomials(1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_product_and_power():
    line = form({(1, 0, 0): 1, (0, 1, 0): 1})
    sq = line * line
    assert sq == form({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})
    assert line**3 == sq * line


def test_euler_identity():
    assert euler_check(FERMAT)
    assert euler_check(form({(2, 1, 0): 3, (0, 0, 3): -5}))


def test_hessian_of_fermat():
    assert hessian_det(FERMAT) == form({(1, 1, 1): 216})


def test_linear_change_roundtrip():
    a = [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]
    # inverse of a
    inv = [
        [Fraction(1), Fraction(-2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(2), Fraction(1)],
    ]
    g = FERMAT.linear_change(a)
    assert g.linear_change(inv) == FERMAT


def test_reduction_detects_divisibility():
    line = form({(1, 0, 0): 1, (0, 1, 0): 1})
    assert (FERMAT * line).divisible_by(line)
    assert not FERMAT.divisible_by(line)
    assert (FERMAT * line).reduce_mod(FERMAT) .is_zero()


def test_eval_over_number_field():
    K = NumberField([1, 1, 1])
    t = K.gen
    val = FERMAT.eval((K.one, -t, K.zero))
    assert val.is_zero()  # (1 : -zeta3 : 0) lies on the Fermat cubic


def test_text_is_graded_lex():
    f = form({(0, 0, 2): 1, (2, 0, 0): -1, (1, 1, 0): 2})
    assert f.text() == "-x^2 + 2*x*y + z^2"


int_matrix = st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9).map(
    lambda v: [[Fraction(v[3 * i + j]) for j in range(3)] for i in range(3)]
)


def _inverse(m):
    """Inverse of an invertible 3x3 matrix by the adjugate."""
    det = det3(m)
    cols = [cross3(m[1], m[2]), cross3(m[2], m[0]), cross3(m[0], m[1])]
    return [[cols[j][i] / det for j in range(3)] for i in range(3)]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda d: st.dictionaries(st.sampled_from(monomials(d)), st.integers(-5, 5), min_size=1)
    ),
    int_matrix,
    int_matrix,
)
def test_linear_change_composes_and_inverts(terms, m, n):
    assume(det3(m) != 0 and det3(n) != 0)
    f = form(terms)
    mn = [[sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    assert f.linear_change(m).linear_change(n) == f.linear_change(mn)
    assert f.linear_change(m).linear_change(_inverse(m)) == f


Q2 = NumberField([-2, 0, 1])
CLUSTER4 = NumberField([-3, 1, 0, 0, 1], symbol="r")  # a degree-4 cluster field
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _value(draw, field):
    if field == QQ:
        return draw(small)
    return field.element(draw(st.lists(small, min_size=field.degree, max_size=field.degree)))


@st.composite
def fiber_case(draw):
    form_field, point_field = draw(st.sampled_from([(QQ, QQ), (Q2, Q2), (QQ, Q2), (Q2, QQ), (QQ, CLUSTER4)]))
    degree = draw(st.integers(min_value=1, max_value=5))
    monos = draw(st.lists(st.sampled_from(monomials(degree)), min_size=1, max_size=8, unique=True))
    f = HomogeneousPoly(form_field, degree, {m: _value(draw, form_field) for m in monos})
    i = draw(st.sampled_from([1, 2]))
    point = [_value(draw, point_field) if draw(st.booleans()) else point_field.one for _ in range(3)]
    point[i] = None
    return f, i, tuple(point), point_field if point_field != QQ else form_field


def fiber_oracle(f, i, point, field):
    """The plain term-by-term sum: c * (product of the fixed values) * X^(e[i])."""
    out = UniPoly.zero(field)
    for e, c in f.terms.items():
        coeff = c
        for j in range(3):
            for _ in range(e[j] if j != i else 0):
                coeff = coeff * point[j]
        out = out + UniPoly(field, [0] * e[i] + [coeff])
    return out


@settings(max_examples=60, deadline=None)
@given(fiber_case())
def test_fiber_equals_the_term_by_term_sum(case):
    f, i, point, field = case
    got = f.fiber(i, point)
    assert got.field == field
    assert got == fiber_oracle(f, i, point, field)
