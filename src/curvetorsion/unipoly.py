"""Dense univariate polynomials over Q or a number field.

Coefficients are stored constant-term first with a nonzero leading
coefficient (the zero polynomial has an empty tuple and degree -1).
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy.polys.densearith import dmp_exquo, dmp_mul
from sympy.polys.densebasic import dmp_degree, dmp_from_dict, dmp_zero
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_inner_subresultants

from .fields import QQ, AlgNum, FieldError, common_field, power


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        n = len(cs)
        while n > 0 and field.is_zero(cs[n - 1]):
            n -= 1
        self.coeffs = tuple(cs[:n])

    @classmethod
    def zero(cls, field=QQ):
        return cls(field, [])

    @classmethod
    def const(cls, c, field=QQ):
        return cls(field, [c])

    @classmethod
    def x(cls, field=QQ):
        return cls(field, [0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        inv = 1 / self.lc
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [self.field.zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [self.field.zero] * (n - len(other.coeffs))
        return UniPoly(self.field, [x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            c = self.field.coerce(other)
            return UniPoly(self.field, [a * c for a in self.coeffs])
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if self.field.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, UniPoly.const(1, self.field))

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.field == self.field:
                return other
            if other.field == QQ:
                return UniPoly(self.field, list(other.coeffs))
            raise FieldError("polynomials over incompatible fields")
        if isinstance(other, (int, Fraction, AlgNum)):
            return UniPoly(self.field, [other])
        raise TypeError(f"cannot combine UniPoly with {other!r}")

    def divmod(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        if self.degree < db:
            return UniPoly.zero(self.field), self
        inv = 1 / other.lc
        q = [self.field.zero] * (self.degree - db + 1)
        for i in range(self.degree - db, -1, -1):
            c = rem[i + db] * inv
            if not self.field.is_zero(c):
                q[i] = c
                for j, bj in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - c * bj
        return UniPoly(self.field, q), UniPoly(self.field, rem[:db])

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self):
        return UniPoly(self.field, [i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a):
        """p(x + a)."""
        result = UniPoly.zero(self.field)
        xa = UniPoly(self.field, [a, 1])
        for c in reversed(self.coeffs):
            result = result * xa + UniPoly.const(c, self.field)
        return result

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if self.field.is_zero(c):
                continue
            if i == 0:
                parts.append(f"({c})")
            elif i == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{i}")
        return " + ".join(parts)


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm (valid over any field)."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def squarefree_decomposition(p: UniPoly):
    """Yun-style decomposition: list of (monic factor, multiplicity).

    The product of factor^multiplicity times the leading coefficient
    reconstructs p.  Works over Q and over number fields.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.degree == 0:
        return []
    w = p.monic()
    out = []
    g = gcd(w, w.derivative())
    c = w.exact_div(g)  # product of distinct factors
    k = 1
    while c.degree > 0:
        nxt = gcd(c, g)
        piece = c.exact_div(nxt)
        if piece.degree > 0:
            out.append((piece.monic(), k))
        c = nxt
        g = g.exact_div(nxt)
        k += 1
    return out


def squarefree_part(p: UniPoly) -> UniPoly:
    if p.is_zero():
        raise ValueError("squarefree part of the zero polynomial")
    prod = UniPoly.const(1, p.field)
    for f, _ in squarefree_decomposition(p):
        prod = prod * f
    return prod


def resultant(p: UniPoly, q: UniPoly):
    """Resultant with the Sylvester determinant convention.

    Computed by the integer resultant engine, exact over Q and over number
    fields.  Res(p, q) = 0 exactly when p and q share a nonconstant common
    factor.
    """
    if p.is_zero() and q.is_zero():
        raise ValueError("resultant of two zero polynomials is undefined")
    if p.is_zero() or q.is_zero():
        other = q if p.is_zero() else p
        if other.degree <= 0:
            raise ValueError("resultant of a constant with the zero polynomial is undefined")
        return other.field.zero
    field = common_field(p.field, q.field)
    r = _zz_resultant(
        {(i, 0): field.coerce(c) for i, c in enumerate(p.coeffs)},
        {(i, 0): field.coerce(c) for i, c in enumerate(q.coeffs)},
        field,
    )
    return r.coeffs[0] if r.coeffs else field.zero


def _zz_resultant(f, g, field, keep_s1=False):
    """Res_v(f, g) as a UniPoly in x over the field, by subresultants over ZZ.

    f and g map exponent pairs (i, j) of v^i x^j to elements of the field
    (Q or a NumberField).  Denominators are cleared and, over a number field,
    the power-basis coordinates of each coefficient become one more integer
    variable t; sympy's `dmp_inner_subresultants` (the chain behind
    `dmp_prs_resultant` and `dmp_resultant`) eliminates v over ZZ[x, t], and
    the result is scaled back and reduced mod the minimal polynomial.  Both
    steps are ring maps, so this is the Sylvester determinant over the field.

    `intersect` passes keep_s1=True and gets (resultant, s_1, c): the
    degree-1 subresultant S_1 = s_1(x) v + c(x) of the same chain, up to a
    nonzero constant (both zero when S_1 has no v term).  The discriminant of
    `check_smooth`, norms and `resultant` only read the resultant.
    """
    fz, lf, nf = _lift_to_zz(f, field)
    gz, lg, ng = _lift_to_zz(g, field)
    sign = 1
    if nf < ng:
        # the chain puts the higher degree first, which changes the sign of
        # the resultant by (-1)^(nf*ng): Res(f, g) = (-1)^(nf*ng) Res(g, f).
        fz, gz, sign = gz, fz, (-1) ** (nf * ng)
    u = 1 if field == QQ else 2
    fd, gd = dmp_from_dict(fz, u, ZZ), dmp_from_dict(gz, u, ZZ)
    chain, psc = dmp_inner_subresultants(fd, gd, u, ZZ) if fz and gz else ([], [])
    r = psc[-1] if chain and dmp_degree(chain[-1], u) == 0 else dmp_zero(u - 1)
    res = _from_zz(r, field, Fraction(sign, lf**ng * lg**nf))
    if not keep_s1:
        return res
    s1 = c = dmp_zero(u - 1)  # no member of degree 1: S_1 is 0 or constant in v
    member = next((k for k, m in enumerate(chain) if dmp_degree(m, u) == 1), None)
    if member == 0:  # two lines: S_1 is not defined, f itself is the gcd
        s1, c = chain[0]
    elif member is not None:
        # Each member is similar to the regular subresultant of its degree,
        # whose leading coefficient is the member's psc (Brown-Traub), so
        # S_1 = psc / lead * member, exactly in ZZ[x, t].
        (lead, tail), s1 = chain[member], psc[member]
        c = dmp_exquo(dmp_mul(s1, tail, u - 1, ZZ), lead, u - 1, ZZ)
    return res, _from_zz(s1, field), _from_zz(c, field)

def _from_zz(r, field, scale=1):
    """An integer polynomial in x (and t over a number field) times scale,
    as a UniPoly in x over the field."""
    if field == QQ:
        return UniPoly(field, [c * scale for c in reversed(r)])
    return UniPoly(field, [field.from_poly_coeffs([c * scale for c in reversed(ts)]) for ts in reversed(r)])


def _lift_to_zz(f, field):
    """(integer dict, common denominator, degree in v) of a polynomial dict."""
    if field == QQ:
        terms = {e: c for e, c in f.items() if c}
    else:
        terms = {e + (k,): a for e, c in f.items() for k, a in enumerate(c.coords) if a}
    den = math.lcm(*(c.denominator for c in terms.values()))
    lifted = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    return lifted, den, max((e[0] for e in lifted), default=0)


def lagrange_interpolate(points, field=QQ):
    """Unique polynomial of degree < len(points) through (x_i, y_i).

    No resultant uses it any more; bench/tracer.py still wraps it by name.
    """
    result = UniPoly.zero(field)
    xs = [field.coerce(x) for x, _ in points]
    for i, (_, yi) in enumerate(points):
        num = UniPoly.const(1, field)
        den = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * UniPoly(field, [-xj, 1])
            den = den * (xs[i] - xj)
        result = result + num * (field.coerce(yi) / den)
    return result
