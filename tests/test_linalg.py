from fractions import Fraction

import pytest

from curvetorsion.fields import QQ, NumberField
from curvetorsion.linalg import (
    cross3,
    det3,
    hermite_normal_form,
    kernel_basis,
    row_echelon,
    row_residual,
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
    assert len(row_echelon(m, QQ)[1]) + len(kernel_basis(m, 3, QQ)) == 3


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
    echelon = row_echelon([[1, 0, 1], [0, 1, 1]], QQ)
    assert all(c == 0 for c in row_residual([1, 1, 2], echelon, QQ))
    assert any(c != 0 for c in row_residual([1, 1, 3], echelon, QQ))


@pytest.mark.parametrize(
    "matrix,expected",
    [
        ([[2, 0], [0, 2], [1, 1]], [1, 2]),
        ([[2, 0], [0, 2]], [2, 2]),
        ([[6]], [6]),
    ],
)
def test_smith_examples(matrix, expected):
    # test_smith_factors_are_ratios_of_minor_gcds checks these by minors
    assert smith_normal_form(matrix) == expected


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
