from fractions import Fraction

import pytest

from curvetorsion.fields import QQ, NumberField
from curvetorsion.linalg import (
    cross3,
    det3,
    det_int,
    hermite_normal_form,
    in_row_span,
    kernel_basis,
    rank,
    smith_normal_form,
)


def test_kernel_identity_is_trivial():
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(m, 3, QQ) == []


def test_kernel_zero_matrix_is_everything():
    m = [[0] * 5, [0] * 5]
    assert len(kernel_basis(m, 5, QQ)) == 5


def test_kernel_rank_one():
    basis = kernel_basis([[1, 1], [2, 2]], 2, QQ)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != (0, 0)


def test_rank_nullity():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m, QQ) + len(kernel_basis(m, 3, QQ)) == 3


def test_kernel_over_number_field():
    K = NumberField([1, 1, 1])
    t = K.gen
    basis = kernel_basis([[K.one, t]], 2, K)
    assert len(basis) == 1
    a, b = basis[0]
    assert (a + t * b).is_zero()


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [1]], 2, QQ)


def test_in_row_span():
    m = [[1, 0, 1], [0, 1, 1]]
    assert in_row_span([1, 1, 2], m, QQ)
    assert not in_row_span([1, 1, 3], m, QQ)


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[2, 0], [0, 2], [1, 1]], [1, 2]),
        ([[2, 0], [0, 2]], [2, 2]),
        ([[6]], [6]),
    ],
)
def test_smith_examples(matrix, expected):
    factors, left, right = smith_normal_form(matrix)
    assert factors == expected
    assert abs(det_int(left)) == 1
    assert abs(det_int(right)) == 1
    # L * M * R is the diagonal of the invariant factors
    nr, nc = len(matrix), len(matrix[0])
    lm = [[sum(left[i][k] * matrix[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
    lmr = [[sum(lm[i][k] * right[k][j] for k in range(nc)) for j in range(nc)] for i in range(nr)]
    for i in range(nr):
        for j in range(nc):
            want = factors[i] if i == j and i < len(factors) else 0
            assert lmr[i][j] == want
    for a, b in zip(factors, factors[1:]):
        if a != 0:
            assert b % a == 0


def test_hermite_is_canonical_for_equal_lattices():
    h1 = hermite_normal_form([[2, 0], [0, 2], [1, 1]], 2)
    h2 = hermite_normal_form([[1, 1], [1, -1], [3, 1]], 2)
    assert h1 == h2 == ((1, 1), (0, 2))
    assert hermite_normal_form([[2, 0], [0, 2]], 2) == ((2, 0), (0, 2))


def test_hermite_drops_zero_rows():
    assert hermite_normal_form([[0, 0], [3, 3]], 2) == ((3, 3),)


def test_cross3_is_the_first_row_cofactor_vector_of_det3():
    k = NumberField([1, 0, 1], symbol="i")
    i = k.gen
    for u, v in [
        ((Fraction(1), Fraction(-2), Fraction(3)), (Fraction(4), Fraction(0), Fraction(-1, 2))),
        ((i, k.one, 2 * i + 1), (k.zero, 3 - i, k.one)),
    ]:
        c = cross3(u, v)
        for w in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 5), u, v]:
            assert det3([w, u, v]) == sum(a * b for a, b in zip(w, c))
