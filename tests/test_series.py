"""Horner evaluation of forms along series, against the power-product sum."""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from curvetorsion.fields import QQ, NumberField
from curvetorsion.homopoly import HomogeneousPoly, monomials
from curvetorsion.series import TruncSeries, eval_form_on_series

FIELDS = [QQ, NumberField([-2, 0, 1], symbol="t"), NumberField([-2, 0, 0, 0, 1], symbol="t")]

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _mul(a, b, order):
    """Plain truncated convolution of coefficient lists, no zero skipping."""
    out = [a[0] * 0] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + a[i] * b[j]
    return out


def power_product_sum(form, sx, sy, sz):
    """The evaluation before Horner: power tables of each series and two
    products per term, here on plain coefficient lists."""
    field = sx.field
    order = min(sx.order, sy.order, sz.order)
    one = [field.one] + [field.zero] * order
    tables = []
    for s in (sx, sy, sz):
        powers = [one]
        for _ in range(form.degree):
            powers.append(_mul(powers[-1], list(s.coeffs), order))
        tables.append(powers)
    acc = [field.zero] * (order + 1)
    for (a, b, c), coeff in form.terms.items():
        term = _mul(_mul(tables[0][a], tables[1][b], order), tables[2][c], order)
        k = field.coerce(coeff)
        acc = [u + v * k for u, v in zip(acc, term)]
    return acc


@st.composite
def element(draw, field):
    if field == QQ:
        return draw(small)
    return field.element(draw(st.lists(small, min_size=field.degree, max_size=field.degree)))


@st.composite
def case(draw):
    field = draw(st.sampled_from(FIELDS))
    degree = draw(st.integers(min_value=1, max_value=6))
    coeff_field = draw(st.sampled_from([QQ, field]))
    terms = {}
    for m in draw(st.lists(st.sampled_from(monomials(degree)), min_size=1, max_size=8, unique=True)):
        terms[m] = draw(element(coeff_field))
    form = HomogeneousPoly(coeff_field, degree, terms)
    order = draw(st.integers(min_value=0, max_value=5))

    def series(n):
        return TruncSeries(field, order, draw(st.lists(element(field), min_size=n, max_size=n)))

    if draw(st.booleans()):  # a chart branch: theta + s, Y(s), 1
        theta = field.gen if field != QQ else draw(small)
        return form, TruncSeries(field, order, [theta, field.one]), series(order + 1), \
            TruncSeries.constant(field, order, field.one), theta
    return form, series(order + 1), series(order + 1), series(order + 1), None


def evaluate(form, sx, sy, sz, theta):
    """The chart evaluator on a branch, else Horner on the general series."""
    if theta is not None:
        return eval_form_on_series(form, theta, sy)
    return form.substitute(sx, sy, sz, TruncSeries.constant(sx.field, sx.order, 1))


@settings(max_examples=60, deadline=None)
@given(case())
def test_horner_equals_the_power_product_sum(c):
    form, sx, sy, sz, theta = c
    got = evaluate(*c)
    assert got.order == min(sx.order, sy.order, sz.order)
    assert list(got.coeffs) == power_product_sum(form, sx, sy, sz)


def test_zero_form_and_mixed_orders():
    field = FIELDS[1]
    sx = TruncSeries(field, 4, [field.gen, 1])
    sy = TruncSeries(field, 2, [Fraction(1, 2), 3, field.gen])
    sz = TruncSeries.constant(field, 5, 1)
    zero = eval_form_on_series(HomogeneousPoly.zero(), field.gen, sy)
    assert zero.order == 2 and zero.valuation() is None
    f = HomogeneousPoly.from_terms({(2, 1, 0): 1, (0, 0, 3): -2})
    assert list(eval_form_on_series(f, field.gen, sy).coeffs) == power_product_sum(f, sx, sy, sz)


# Representation: integer rows over one denominator, against the plain convolution.

INT_FIELDS = [
    QQ,
    NumberField([Fraction(-5, 2), 1], symbol="t"),  # degree 1: t = 5/2
    FIELDS[1],  # Q(sqrt 2)
    FIELDS[2],  # Q(2^(1/4))
    NumberField([Fraction(5, 7), Fraction(-1, 3), 1], symbol="t"),  # reduction rows over R = 21
]


@st.composite
def sparse_element(draw, field):
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return field.zero
    coords = draw(st.lists(small, min_size=field.degree, max_size=field.degree))
    return coords[0] if field == QQ else field.element(coords)


@st.composite
def series_pair(draw):
    field = draw(st.sampled_from(INT_FIELDS))
    oa, ob = draw(st.integers(min_value=0, max_value=6)), draw(st.integers(min_value=0, max_value=6))
    a = draw(st.lists(sparse_element(field), min_size=oa + 1, max_size=oa + 1))
    b = draw(st.lists(sparse_element(field), min_size=ob + 1, max_size=ob + 1))
    return field, a, b, draw(sparse_element(field))


def _normalized(s):
    """Positive denominator, coprime to the gcd of all numerators."""
    return s.den > 0 and gcd(s.den, *(n for row in s.rows for n in row)) == 1


@settings(max_examples=80, deadline=None)
@given(series_pair())
def test_integer_rows_agree_with_the_plain_convolution(c):
    field, a, b, k = c
    sa, sb = TruncSeries(field, len(a) - 1, a), TruncSeries(field, len(b) - 1, b)
    order = min(sa.order, sb.order)
    assert list(sa.coeffs) == a and [sa.coeff(i) for i in range(len(a))] == a
    assert all(type(x) is type(field.zero) for x in sa.coeffs)
    prod, total, scaled = sa * sb, sa + sb, sa.scale(k)
    assert prod.order == total.order == order and scaled.order == sa.order
    assert list(prod.coeffs) == _mul(a, b, order)
    assert list(total.coeffs) == [x + y for x, y in zip(a, b)]
    assert list(scaled.coeffs) == [x * k for x in a]
    assert list((sb * sa).coeffs) == list(prod.coeffs)
    nonzero = [i for i, x in enumerate(a) if not field.is_zero(x)]
    assert sa.valuation() == (nonzero[0] if nonzero else None)
    assert all(_normalized(s) for s in (prod, total, scaled))


@settings(max_examples=25, deadline=None)
@given(case())
def test_kernel_results_are_normalized(c):
    assert _normalized(evaluate(*c))


def test_reduction_rows_over_one_denominator():
    field = INT_FIELDS[-1]  # t^2 = t/3 - 5/7
    assert field.red_den == 21 and field.red_num == [(-15, 7)]
    assert QQ.red_den == INT_FIELDS[1].red_den == 1 and not INT_FIELDS[1].red_num
    rows, den = field.int_coords([Fraction(1, 2), field.gen, field.element([Fraction(2, 3), 1])])
    assert den == 6 and rows == [(3, 0), (0, 6), (4, 6)]
    assert [field.from_int_coords(r, den) for r in rows] == [field.coerce(Fraction(1, 2)), field.gen,
                                                              field.element([Fraction(2, 3), 1])]
    theta = TruncSeries(field, 3, [field.gen, 1])
    assert list((theta * theta).coeffs) == [field.gen * field.gen, 2 * field.gen, field.one, field.zero]


@st.composite
def branch(draw):
    """A form, theta (the generator, -7/3 or a random element) and the Y
    series of a branch, over one of the integer-form fields."""
    field = draw(st.sampled_from(INT_FIELDS))
    degree = draw(st.integers(min_value=0, max_value=6))
    coeff_field = draw(st.sampled_from([QQ, field]))
    terms = {m: draw(sparse_element(coeff_field))
             for m in draw(st.lists(st.sampled_from(monomials(degree)), max_size=8, unique=True))}
    form = HomogeneousPoly(coeff_field, degree, terms)  # zero coefficients drop out
    gen = field.gen if field != QQ else Fraction(5, 2)
    theta = draw(st.sampled_from([gen, field.coerce(Fraction(-7, 3)), draw(sparse_element(field))]))
    order = draw(st.integers(min_value=0, max_value=6))
    ys = draw(st.lists(sparse_element(field), min_size=order + 1, max_size=order + 1))
    return form, theta, TruncSeries(field, order, ys)


@settings(max_examples=80, deadline=None)
@given(branch())
def test_taylor_shifted_rows_equal_the_power_product_sum(c):
    form, theta, sy = c
    field, order = sy.field, sy.order
    got = eval_form_on_series(form, theta, sy)
    sx = TruncSeries(field, order, [theta, field.one])
    assert got.order == order and _normalized(got)
    assert list(got.coeffs) == power_product_sum(form, sx, sy, TruncSeries.constant(field, order, 1))


def test_taylor_shift_of_the_zero_form_and_a_rational_theta():
    field = INT_FIELDS[-1]  # reduction rows over R = 21
    sy = TruncSeries(field, 3, [1, field.gen, 0, Fraction(2, 5)])
    assert eval_form_on_series(HomogeneousPoly.zero(field), Fraction(1, 6), sy).valuation() is None
    # x^2 - (1/36) z^2 at (1/6 + s, Y, 1) is s/3 + s^2
    f = HomogeneousPoly.from_terms({(2, 0, 0): 1, (0, 0, 2): Fraction(-1, 36)})
    got = eval_form_on_series(f, Fraction(1, 6), sy)
    assert list(got.coeffs) == [field.zero, field.coerce(Fraction(1, 3)), field.one, field.zero]
