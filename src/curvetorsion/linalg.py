"""Exact dense linear algebra.

Row echelon forms, kernels and row residuals over Q or a number field are
computed here, on `Fraction` or `AlgNum` entries.  Smith and Hermite forms
of integer matrices come from sympy's `DomainMatrix` over ZZ.  `det3` and
`cross3` work over any commutative ring.
"""

from __future__ import annotations

from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix, normalforms
from sympy.polys.polyerrors import CoercionFailed


def _check_rect(matrix):
    if not matrix:
        return
    w = len(matrix[0])
    if any(len(row) != w for row in matrix):
        raise ValueError("ragged matrix")


def row_echelon(matrix, field):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    _check_rect(matrix)
    rows = [list(field.coerce(c) for c in row) for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(matrix, ncols, field):
    """Basis of the null space of the matrix (list of coefficient tuples).

    Exact elimination; rank + nullity = ncols by construction.
    """
    if not matrix:
        basis = []
        for j in range(ncols):
            v = [field.zero] * ncols
            v[j] = field.one
            basis.append(tuple(v))
        return basis
    _check_rect(matrix)
    if len(matrix[0]) != ncols:
        raise ValueError("column count mismatch")
    rows, pivots = row_echelon(matrix, field)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [field.zero] * ncols
        v[j] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        basis.append(tuple(v))
    return basis


def row_residual(vector, echelon, field):
    """The vector reduced against a reduced row echelon form (rows, pivots)
    from `row_echelon`: all zero exactly when it lies in the row span."""
    rows, pivots = echelon
    v = [field.coerce(c) for c in vector]
    for row, c in zip(rows, pivots):
        f = v[c]
        if not field.is_zero(f):
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _zz_matrix(matrix, ncols):
    """The rows as a DomainMatrix over ZZ with ncols columns; every entry
    must be an integer (an int, or a Fraction with denominator 1)."""
    if any(len(row) != ncols for row in matrix):
        raise ValueError("column count mismatch")
    try:
        rows = [[ZZ.convert(v) for v in row] for row in matrix]
    except CoercionFailed:
        raise ValueError("integer matrix required") from None
    return DomainMatrix(rows, (len(rows), ncols), ZZ)


def smith_normal_form(matrix):
    """The invariant factors of an integer matrix, as a list of ints.

    There are min(rows, cols) of them: the nonzero diagonal entries of the
    Smith form, each dividing the next, then one 0 per rank deficit.
    """
    m = _zz_matrix(matrix, len(matrix[0]) if matrix else 0)
    return [int(f) for f in normalforms.invariant_factors(m)]


def hermite_normal_form(matrix, ncols):
    """Canonical row-style Hermite normal form of the row lattice.

    Rows are in echelon form with pivot columns increasing, pivots
    positive, entries above a pivot reduced into [0, pivot), and zero rows
    dropped, so equal lattices give equal outputs.
    """
    # sympy reduces the column lattice and puts each pivot at the bottom of
    # its column, reducing entries to the right of it: on the transpose with
    # reversed coordinates that is our form with rows and coordinates reversed
    m = _zz_matrix([row[::-1] for row in matrix], ncols).transpose()
    h = normalforms.hermite_normal_form(m).transpose().to_list()
    return tuple(tuple(int(x) for x in row[::-1]) for row in h[::-1])


def det3(rows):
    """Determinant of a 3x3 matrix by cofactor expansion along the first row.

    Only +, - and * are used, so the entries may come from any commutative
    ring: Fraction, AlgNum or HomogeneousPoly.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross3(u, v):
    """Cross product u x v of two 3-vectors over any commutative ring.

    These are the cofactors of the first row of det3([w, u, v]), so
    det3([w, u, v]) equals the dot product of w with cross3(u, v).  For two
    projective points it gives the line through them; for two lines, their
    meeting point.
    """
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
