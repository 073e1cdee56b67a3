"""Coefficient fields: the rationals and single-generator number fields Q[t]/(m).

All arithmetic is exact.  Rational scalars are ``fractions.Fraction`` (already
normalized with positive denominator); number field elements are dense
coordinate vectors in the power basis 1, t, ..., t^(deg-1).  Values are
immutable and hashable, so they can be shared freely between threads.

Both kinds of scalar support +, -, *, / (``1 / x`` is the inverse) and ==
with each other and with ints, so this is the only module that chooses
arithmetic by scalar type.

Each field also has an integer form for bulk arithmetic (the series kernel):
``int_coords`` writes values as integer coordinate vectors over one common
positive denominator, ``from_int_coords`` reads one back, and ``red_num`` /
``red_den`` are the reduction rows of the minimal polynomial over one
denominator R (Cohen 1993, 4.2).  Q is the degree-1 case with no rows, R = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

# The exact rational scalar type used throughout the package.
Rat = Fraction

RatLike = (int, Fraction)


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _int_coords(cols):
    """Coordinate tuples of Fractions/ints as (int tuples, one denominator L > 0)."""
    den = lcm(*(c.denominator for col in cols for c in col))
    return [tuple(c.numerator * (den // c.denominator) for c in col) for col in cols], den


class FieldError(ValueError):
    pass


class RationalField:
    """The field Q.  A stateless singleton used as the default base field."""

    degree = 1
    red_num = ()
    red_den = 1

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if type(x) is Fraction:
            return x
        if isinstance(x, RatLike):
            return Fraction(x)
        if isinstance(x, AlgNum) and x.field.degree == 1:
            return x.coords[0] if x.coords else Fraction(0)
        if isinstance(x, AlgNum) and x.is_rational():
            return x.coords[0]
        raise FieldError(f"cannot coerce {x!r} into Q")

    def is_zero(self, x):
        return x == 0

    def int_coords(self, values):
        """Values as 1-tuples of ints over one common denominator."""
        return _int_coords([(self.coerce(x),) for x in values])

    def from_int_coords(self, vec, den):
        return Fraction(vec[0], den)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


class NumberField:
    """Q[t]/(m(t)) for a monic irreducible m, with a named generator symbol.

    The minimal polynomial is stored as a coefficient tuple (constant term
    first, leading 1 last).  Irreducibility over Q is verified at construction
    unless ``trusted=True`` (used when the factorization that produced m
    already guarantees it).
    """

    def __init__(self, min_poly, symbol="t", trusted=False):
        coeffs = _trim([Fraction(c) for c in min_poly])
        if len(coeffs) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if coeffs[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        self.symbol = symbol
        if not trusted and self.degree > 1:
            from .qpoly import is_irreducible_q

            if not is_irreducible_q(coeffs):
                raise FieldError(f"minimal polynomial {list(coeffs)} is reducible over Q")
        # rows[k] = coordinates of t^(deg+k) in the power basis, k = 0..deg-2
        self._red_rows = self._reduction_rows()
        # the same rows as integers over one denominator: t^(deg+k) = red_num[k] / red_den
        self.red_num, self.red_den = _int_coords(self._red_rows[: self.degree - 1])
        self._zeros = (0,) * (self.degree - 1)

    def _reduction_rows(self):
        d = self.degree
        rows = []
        cur = [-c for c in self.min_poly[:d]]  # t^d
        rows.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Fraction(0)] + cur[: d - 1]
            top = cur[d - 1]
            if top:
                nxt = [nxt[i] + top * rows[0][i] for i in range(d)]
            cur = nxt
            rows.append(tuple(cur))
        return rows

    @property
    def zero(self):
        return AlgNum(self, (Fraction(0),) * self.degree)

    @property
    def one(self):
        return AlgNum(self, (Fraction(1),) + (Fraction(0),) * (self.degree - 1))

    @property
    def gen(self):
        coords = [Fraction(0)] * self.degree
        if self.degree == 1:
            # t is congruent to the root of the degree-1 minimal polynomial
            return AlgNum(self, (-self.min_poly[0],))
        coords[1] = Fraction(1)
        return AlgNum(self, tuple(coords))

    def coerce(self, x):
        if isinstance(x, AlgNum):
            if x.field == self:
                return x
            if x.is_rational():
                return self.coerce(x.coords[0] if x.coords else 0)
            raise FieldError(f"cannot coerce element of {x.field!r} into {self!r}")
        if isinstance(x, RatLike):
            coords = [Fraction(0)] * self.degree
            coords[0] = Fraction(x)
            return AlgNum(self, tuple(coords))
        raise FieldError(f"cannot coerce {x!r} into {self!r}")

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) > self.degree:
            raise FieldError("coordinate vector longer than field degree")
        coords += [Fraction(0)] * (self.degree - len(coords))
        return AlgNum(self, tuple(coords))

    def from_poly_coeffs(self, coeffs):
        """The element c_0 + c_1 t + ... + c_k t^k of a t-polynomial of any
        degree k: its remainder modulo the minimal polynomial."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = _poly_divmod_q(coeffs, self.min_poly)[1]
        return self.element(coeffs)

    def is_zero(self, x):
        return self.coerce(x).is_zero()

    def int_coords(self, values):
        """Power-basis coordinates of the values as int tuples over one
        common denominator L > 0: value i is ints[i] / L."""
        cols = []
        for x in values:
            if type(x) is Fraction or type(x) is int:
                cols.append((x,) + self._zeros)
            else:
                cols.append(self.coerce(x).coords)
        return _int_coords(cols)

    def from_int_coords(self, vec, den):
        return AlgNum(self, tuple(Fraction(n, den) for n in vec))

    def conjugate(self, x):
        """The nontrivial conjugate, degree-2 fields only."""
        if self.degree != 2:
            raise FieldError("conjugation is implemented for quadratic fields only")
        a = self.coerce(x)
        c0, c1 = a.coords
        p1 = self.min_poly[1]
        return AlgNum(self, (c0 - c1 * p1, -c1))

    def __repr__(self):
        return f"Q[{self.symbol}]/({list(self.min_poly)})"

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.min_poly == other.min_poly
            and self.symbol == other.symbol
        )

    def __hash__(self):
        return hash((self.min_poly, self.symbol))


class AlgNum:
    """An element of a NumberField, stored in the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self):
        if not self.is_rational():
            raise FieldError(f"{self!r} is not rational")
        return self.coords[0] if self.coords else Fraction(0)

    def _coerce_other(self, other):
        if isinstance(other, AlgNum):
            if other.field != self.field:
                if other.is_rational():
                    return self.field.coerce(other.as_rational())
                if self.is_rational():
                    return None  # handled by caller via reflection
                raise FieldError("mixed number field arithmetic is not supported")
            return other
        if isinstance(other, RatLike):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return AlgNum(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        a, b = self.coords, o.coords
        prod = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
        out = list(prod[:d])
        rows = self.field._red_rows
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                row = rows[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return AlgNum(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self):
        """Inverse modulo the minimal polynomial, by extended Euclid."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        m = list(self.field.min_poly)
        a = _trim(self.coords)
        # extended gcd of a and m in Q[t]
        r0, r1 = list(m), list(a)
        s0, s1 = [], [Fraction(1)]
        while True:
            r1 = list(_trim(r1))
            if len(r1) == 1:  # unit remainder: gcd reached
                inv_lead = 1 / r1[0]
                coeffs = [c * inv_lead for c in s1]
                return self.field.from_poly_coeffs(coeffs)
            q, r = _poly_divmod_q(r0, r1)
            s0, s1 = s1, _poly_sub_q(s0, _poly_mul_q(q, s1))
            r0, r1 = r1, r

    def __truediv__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        if other == 1:
            return self.inverse()
        return self.field.coerce(other) * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return power(self.inverse(), -n, self.field.one)
        return power(self, n, self.field.one)

    def __eq__(self, other):
        if isinstance(other, RatLike):
            return self.is_rational() and self.as_rational() == other
        if isinstance(other, AlgNum):
            if other.field == self.field:
                return self.coords == other.coords
            return self.is_rational() and other.is_rational() and self.as_rational() == other.as_rational()
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())
        return hash((self.field, self.coords))

    def __repr__(self):
        t = self.field.symbol
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{t}" if c != 1 else t)
            else:
                parts.append(f"{c}*{t}^{i}" if c != 1 else f"{t}^{i}")
        return " + ".join(parts) if parts else "0"


def _poly_divmod_q(a, b):
    a = list(a)
    b = list(_trim(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    return q, list(_trim(a[: len(b) - 1]))


def _poly_mul_q(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub_q(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def power(x, n, one):
    """x**n for an integer n >= 0 by square-and-multiply, where ``one`` is
    the unit of x's ring.  The one such loop behind ``**`` on field
    elements, univariate polynomials, forms and the parser's polynomials."""
    if n < 0:
        raise ValueError(f"negative exponent {n}")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def common_field(f1, f2):
    """Smallest supported field containing both, or raise.

    Only Q and a single extension are supported; a genuine tower is rejected.
    """
    if f1 == f2:
        return f1
    if isinstance(f1, RationalField):
        return f2
    if isinstance(f2, RationalField):
        return f1
    raise FieldError(f"incompatible fields {f1!r} and {f2!r} (towers are not supported)")
