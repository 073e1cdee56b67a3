import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from curvetorsion.fields import QQ, AlgNum, FieldError, NumberField, Rat, common_field


def test_rat_is_normalized_fraction():
    r = Rat(6, -4)
    assert r.numerator == -3 and r.denominator == 2


def test_zeta3_arithmetic():
    K = NumberField([1, 1, 1])  # t^2 + t + 1
    t = K.gen
    assert t**3 == 1
    assert t * t == -1 - t
    assert (1 + t) * (1 + t * t) == 1
    assert (t**2 + t + 1).is_zero()


def test_inverse_and_division():
    K = NumberField([-2, 0, 1])  # t^2 - 2
    t = K.gen
    inv = t.inverse()
    assert t * inv == 1
    assert (3 / t) * t == 3
    assert (t + 1) / (t + 1) == 1


def test_reducible_min_poly_rejected():
    with pytest.raises(FieldError):
        NumberField([-1, 0, 1])  # t^2 - 1 = (t-1)(t+1)


def test_non_monic_rejected():
    with pytest.raises(FieldError):
        NumberField([1, 1, 2])


def test_degree_four_power_basis():
    K = NumberField([1, 0, 0, 0, 1])  # t^4 + 1
    t = K.gen
    assert t**8 == 1
    assert (t**4) == -1
    assert (t**3 * t) == -1


def test_coercion_and_mixed_ops():
    K = NumberField([1, 1, 1])
    t = K.gen
    assert t + Fraction(1, 2) == K.element([Fraction(1, 2), 1])
    assert 2 * t == K.element([0, 2])
    with pytest.raises(FieldError):
        K2 = NumberField([-2, 0, 1])
        _ = K.gen + K2.gen


def test_quadratic_conjugation():
    K = NumberField([1, 1, 1])
    t = K.gen
    conj = K.conjugate(t)
    assert conj == -1 - t
    assert t * conj == 1  # norm of a root of t^2 + t + 1
    assert t + conj == -1


def test_tower_rejected():
    K1 = NumberField([1, 1, 1])
    K2 = NumberField([-2, 0, 1])
    with pytest.raises(FieldError):
        common_field(K1, K2)
    assert common_field(QQ, K1) == K1


def test_hashable_values():
    K = NumberField([1, 1, 1])
    assert len({K.gen, K.gen, K.one}) == 2
    assert hash(K.one) == hash(Fraction(1))


REDUCTION_FIELDS = [
    NumberField([-2, 0, 1]),  # Q(sqrt 2)
    NumberField([-2, 0, 0, 0, 1]),  # Q(2^(1/4))
    NumberField([Fraction(5, 7), Fraction(-1, 3), 1]),  # t^2 - t/3 + 5/7: reduction rows over R > 1
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(REDUCTION_FIELDS).flatmap(
        lambda K: st.tuples(
            st.just(K),
            st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=3 * K.degree + 1),
        )
    )
)
def test_from_poly_coeffs_equals_the_power_sum(case):
    K, coeffs = case
    want, gen_power = K.zero, K.one
    for c in coeffs:  # sum c_k * gen^k, gen^k by repeated multiplication
        want = want + gen_power * c
        gen_power = gen_power * K.gen
    assert K.from_poly_coeffs(coeffs) == want


def test_a_number_field_is_freed_after_reducing():
    K = NumberField([-3, 1, 0, 0, 1], symbol="r", trusted=True)
    got = K.from_poly_coeffs(range(1, 20))
    want = sum(k * K.gen ** (k - 1) for k in range(1, 20))
    assert got == want
    ref = weakref.ref(K)
    del K, got, want
    gc.collect()
    assert ref() is None
