"""Exact dense linear algebra: kernels over a field, Smith and Hermite forms over Z."""

from __future__ import annotations


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


def rank(matrix, field):
    if not matrix:
        return 0
    _, pivots = row_echelon(matrix, field)
    return len(pivots)


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


def in_row_span(vector, matrix, field):
    """Whether the vector lies in the row span of the matrix."""
    return all(field.is_zero(c) for c in row_residual(vector, row_echelon(matrix, field), field))


def _int_rows(matrix):
    out = []
    for row in matrix:
        r = []
        for v in row:
            iv = int(v)
            if iv != v:
                raise ValueError("integer matrix required")
            r.append(iv)
        out.append(r)
    return out


def smith_normal_form(matrix):
    """Smith normal form with transforms: returns (factors, L, R).

    L and R are unimodular with L*M*R diagonal, diagonal entries
    nonnegative and each dividing the next.
    """
    _check_rect(matrix)
    a = _int_rows(matrix)
    nr = len(a)
    nc = len(a[0]) if a else 0
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, mult):
        a[dst] = [x + mult * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + mult * y for x, y in zip(left[dst], left[src])]

    def add_col(src, dst, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in right:
            row[dst] += mult * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    t = 0
    while t < min(nr, nc):
        # locate a nonzero entry of minimal magnitude in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            progress = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        progress = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        progress = True
            if not progress:
                break
        if a[t][t] < 0:
            negate_row(t)
        # enforce divisibility of the rest of the block by the pivot
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    factors = [a[i][i] for i in range(min(nr, nc))]
    return factors, left, right


def hermite_normal_form(matrix, ncols):
    """Canonical row-style Hermite normal form of the row lattice.

    Pivots positive, entries above a pivot reduced into [0, pivot).
    Zero rows are dropped, so equal lattices give equal outputs.
    """
    rows = [list(r) for r in _int_rows(matrix)] if matrix else []
    for row in rows:
        if len(row) != ncols:
            raise ValueError("column count mismatch")
    r = 0
    for c in range(ncols):
        pivot_row = None
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(rows[i][c]))
            rows[r], rows[i_min] = rows[i_min], rows[r]
            done = True
            for i in range(r + 1, len(rows)):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        done = False
            if done:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


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


def det_int(matrix):
    """Determinant of a square integer matrix (Bareiss)."""
    _check_rect(matrix)
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
