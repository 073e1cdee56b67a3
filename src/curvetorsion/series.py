"""Truncated power series in one local parameter s, exact coefficients.

A series over a field K of degree d is stored as integers: row i holds the d
power-basis coordinates of coefficient i as ints, and one positive
denominator serves the whole series (Q is the case d = 1).  The field's
`int_coords` / `from_int_coords` convert between field elements and this
form, and its `red_num` / `red_den` rows reduce t^(d+k) modulo the minimal
polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd


class TruncSeries:
    """Coefficients c[0..order] of a series known modulo s^(order+1).

    ``rows[i]`` are the integer power-basis coordinates of c[i] and ``den``
    is their one common denominator, so c[i] = rows[i] / den.  Construction
    takes the least common denominator and arithmetic removes the content
    (the gcd of den and every numerator) once per result, so den > 0 and
    that gcd is 1 for every series.
    ``coeffs`` and ``coeff(i)`` give the coefficients as field elements
    (``Fraction`` or ``AlgNum``), ``coords(i)`` the coordinates of one.
    """

    __slots__ = ("field", "order", "rows", "den")

    def __init__(self, field, order, coeffs):
        coeffs = list(coeffs[: order + 1])
        coeffs += [0] * (order + 1 - len(coeffs))
        self.field = field
        self.order = order
        self.rows, self.den = field.int_coords(coeffs)

    @classmethod
    def _from_ints(cls, field, order, rows, den):
        """Series rows / den with the content removed."""
        s = cls.__new__(cls)
        g = gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
        if g > 1:
            rows = [tuple(x // g for x in row) for row in rows]
            den //= g
        s.field, s.order, s.rows, s.den = field, order, rows, den
        return s

    @classmethod
    def constant(cls, field, order, c):
        return cls(field, order, [c])

    @property
    def coeffs(self):
        return tuple(self.field.from_int_coords(row, self.den) for row in self.rows)

    def coeff(self, i):
        return self.field.from_int_coords(self.rows[i], self.den)

    def coords(self, i):
        """Power-basis coordinates of c[i] as Fractions, read off the integers."""
        return tuple(Fraction(n, self.den) for n in self.rows[i])

    def __add__(self, other):
        order = min(self.order, other.order)
        a, b = self.rows[: order + 1], other.rows[: order + 1]
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        rows = [tuple(x * fa + y * fb for x, y in zip(ra, rb)) for ra, rb in zip(a, b)]
        return TruncSeries._from_ints(self.field, order, rows, fa * self.den)

    def __mul__(self, other):
        """Schoolbook product on the integer rows.

        Zero coefficients are skipped on both sides (and zero coordinates
        within a coefficient), so a factor with few nonzero terms (theta + s,
        or 1) costs O(order).  Each output coefficient is accumulated as an
        unreduced polynomial in t of length 2d - 1 and reduced modulo the
        minimal polynomial once.  A factor that is not a series is a field
        element.
        """
        if not isinstance(other, TruncSeries):
            vecs, den = self.field.int_coords([other])
            return self._mul_rows(vecs, den, self.order)
        return self._mul_rows(other.rows, other.den, min(self.order, other.order))

    __rmul__ = __mul__

    def _mul_rows(self, right_rows, right_den, order):
        field = self.field
        d = field.degree
        right = []
        for j, row in enumerate(right_rows[: order + 1]):
            nz = [(v, b) for v, b in enumerate(row) if b]
            if nz:
                right.append((j, nz))
        acc = [None] * (order + 1)
        for i, row in enumerate(self.rows[: order + 1]):
            left = [(u, a) for u, a in enumerate(row) if a]
            if not left:
                continue
            for j, nz in right:
                k = i + j
                if k > order:
                    break
                p = acc[k]
                if p is None:
                    p = acc[k] = [0] * (2 * d - 1)
                for u, a in left:
                    for v, b in nz:
                        p[u + v] += a * b
        red, r = field.red_num, field.red_den
        zero, out = (0,) * d, []
        for p in acc:
            if p is None:
                out.append(zero)
                continue
            low = p[:d] if r == 1 else [r * c for c in p[:d]]
            for l, c in enumerate(p[d:]):
                if c:
                    row = red[l]
                    for u in range(d):
                        low[u] += c * row[u]
            out.append(tuple(low))
        return TruncSeries._from_ints(field, order, out, self.den * right_den * r)

    def scale(self, c):
        return self * c

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero so far."""
        for i, row in enumerate(self.rows):
            if any(row):
                return i
        return None

    def __repr__(self):
        return f"TruncSeries(order={self.order}, {list(self.coeffs)})"


def eval_form_on_series(form, theta, sy):
    """The form at (theta + s, Y(s), 1), a branch in its chart, to sy.order.

    The form's scalars are converted once to integer coordinate vectors.
    With f = sum_j y^j a_j(x, z), each row b_j(s) = a_j(theta + s, 1) is a
    Taylor shift (von zur Gathen-Gerhard 1997), built by Horner's scheme in
    x on plain integer lists (`_shifted_row`).  Horner's scheme in y
    (Brent-Kung 1978) then runs acc = acc * Y + b_j: d dense products for a
    form of degree d.  theta is an element of sy's field.  A form on general
    series is evaluated by `HomogeneousPoly.substitute`.
    """
    field, order = sy.field, sy.order
    vecs, den = field.int_coords(list(form.terms.values()))
    by_y = {}
    for (a, b, _), vec in zip(form.terms, vecs):
        by_y.setdefault(b, {})[a] = vec
    if not by_y:
        return TruncSeries(field, order, [])
    theta_rows, q = _times_theta(field, theta)
    acc = None
    for j in range(max(by_y), -1, -1):
        if acc is not None:
            acc = acc * sy
        if j in by_y:
            rows, scale = _shifted_row(by_y[j], theta_rows, q, order)
            bj = TruncSeries._from_ints(field, order, rows, den * scale)
            acc = bj if acc is None else acc + bj
    return acc


def _times_theta(field, theta):
    """Multiplication by theta on coordinate vectors as (sparse integer
    rows, q): theta * t^u = (sum of m * t^v over (v, m) in rows[u]) / q.

    The rows are one kernel product: a series whose coefficient u is t^u,
    times theta."""
    d = field.degree
    powers = [tuple(int(u == v) for v in range(d)) for u in range(d)]
    prod = TruncSeries._from_ints(field, d - 1, powers, 1) * theta
    return [[(v, m) for v, m in enumerate(row) if m] for row in prod.rows], prod.den


def _shifted_row(row, theta_rows, q, order):
    """sum_a c_a (theta + s)^a to s^order for {a: c_a} (integer vectors), as
    (order + 1 integer rows, scale): the series is rows / scale.

    Horner in x, P <- (theta + s) P + c_i, on P kept over the scale q^k
    after k steps: P <- theta_rows(P) + q * s * P + q^(k+1) * c_i,
    truncated at s^order.
    """
    d = len(theta_rows)
    top = max(row)
    p, scale = [list(row[top])], 1
    for i in range(top - 1, -1, -1):
        scale *= q
        nxt = []
        for k in range(min(len(p) + 1, order + 1)):
            out = [0] * d if k == 0 else [q * x for x in p[k - 1]]
            if k < len(p):
                for u, a in enumerate(p[k]):
                    if a:
                        for v, m in theta_rows[u]:
                            out[v] += a * m
            nxt.append(out)
        c = row.get(i)
        if c is not None:
            nxt[0] = [x + scale * y for x, y in zip(nxt[0], c)]
        p = nxt
    zero = (0,) * d
    return [tuple(x) for x in p] + [zero] * (order + 1 - len(p)), scale
