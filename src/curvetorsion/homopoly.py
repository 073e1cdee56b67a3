"""Sparse homogeneous forms in x, y, z over Q or a number field.

Terms map exponent triples (all summing to the degree) to nonzero
coefficients.  The zero polynomial is the unique empty form of degree 0.
Term order everywhere is graded lexicographic with x > y > z, which makes
printing and hashing canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, AlgNum, common_field
from .linalg import det3
from .unipoly import UniPoly

VARS = ("x", "y", "z")


def monomials(degree):
    """Exponent triples of the given total degree, graded-lex descending."""
    out = []
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            out.append((a, b, degree - a - b))
    return out


class HomogeneousPoly:
    __slots__ = ("field", "degree", "terms")

    def __init__(self, field, degree, terms):
        clean = {}
        for exps, c in terms.items():
            c = field.coerce(c)
            if field.is_zero(c):
                continue
            if sum(exps) != degree or min(exps) < 0:
                raise ValueError(f"exponent triple {exps} does not have degree {degree}")
            clean[tuple(exps)] = c
        if not clean:
            degree = 0
        self.field = field
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, field=QQ):
        return cls(field, 0, {})

    @classmethod
    def from_terms(cls, terms, field=QQ):
        degs = {sum(e) for e in terms}
        if not degs:
            return cls.zero(field)
        if len(degs) > 1:
            raise ValueError(f"terms of mixed degrees {sorted(degs)} are not homogeneous")
        return cls(field, degs.pop(), terms)

    @classmethod
    def variable(cls, i, field=QQ):
        e = [0, 0, 0]
        e[i] = 1
        return cls(field, 1, {tuple(e): field.one})

    @classmethod
    def linear_form(cls, coeffs, field=QQ):
        return cls(field, 1, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]})

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousPoly)
            and self.field == other.field
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.degree, tuple(self.sorted_terms())))

    def _coerce_pair(self, other):
        if not isinstance(other, HomogeneousPoly):
            raise TypeError(f"expected HomogeneousPoly, got {other!r}")
        field = common_field(self.field, other.field)
        return self.to_field(field), other.to_field(field)

    def to_field(self, field):
        if field == self.field:
            return self
        return HomogeneousPoly(field, self.degree, {e: field.coerce(c) for e, c in self.terms.items()})

    def __add__(self, other):
        a, b = self._coerce_pair(other)
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        if a.degree != b.degree:
            raise ValueError("cannot add forms of different degrees")
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, a.field.zero) + c
        return HomogeneousPoly(a.field, a.degree, terms)

    def __neg__(self):
        return HomogeneousPoly(self.field, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.field.coerce(other)
            return HomogeneousPoly(self.field, self.degree, {e: v * c for e, v in self.terms.items()})
        if isinstance(other, AlgNum):
            field = common_field(self.field, other.field)
            me = self.to_field(field)
            c = field.coerce(other)
            return HomogeneousPoly(field, me.degree, {e: v * c for e, v in me.terms.items()})
        a, b = self._coerce_pair(other)
        if a.is_zero() or b.is_zero():
            return HomogeneousPoly.zero(a.field)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prev = terms.get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return HomogeneousPoly(a.field, a.degree + b.degree, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = HomogeneousPoly(self.field, 0, {(0, 0, 0): self.field.one})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def diff(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
        if not terms:
            return HomogeneousPoly.zero(self.field)
        return HomogeneousPoly(self.field, self.degree - 1, terms)

    def gradient(self):
        return (self.diff(0), self.diff(1), self.diff(2))

    def eval(self, point):
        """Evaluate at a triple of scalars from a compatible field."""
        acc = None
        for e, c in self.terms.items():
            v = c
            for i in range(3):
                if e[i]:
                    v = v * point[i] ** e[i]
            acc = v if acc is None else acc + v
        return self.field.zero if acc is None else acc

    def linear_change(self, matrix):
        """f(M.X): substitute each variable by the matching row combination.

        ``matrix`` has rows M[i] so that old variable i becomes
        M[i][0]*x + M[i][1]*y + M[i][2]*z.
        """
        forms = [HomogeneousPoly.linear_form(row, self.field) for row in matrix]
        pow_cache = [{0: HomogeneousPoly(self.field, 0, {(0, 0, 0): self.field.one})} for _ in range(3)]

        def power(i, n):
            cache = pow_cache[i]
            if n not in cache:
                cache[n] = power(i, n - 1) * forms[i]
            return cache[n]

        out = HomogeneousPoly.zero(self.field)
        for e, c in self.terms.items():
            term = power(0, e[0]) * power(1, e[1]) * power(2, e[2])
            out = out + term * c if not out.is_zero() else term * c
        return out

    def as_unipoly_in_y(self, x_value=None):
        """Coefficients of powers of y after setting z = 1.

        With ``x_value`` given, returns a UniPoly in y over the field.
        Without it, returns a list of UniPoly in x (index = power of y).
        """
        if x_value is not None:
            field = x_value.field if isinstance(x_value, AlgNum) else self.field
            coeffs = {}
            for (a, b, _), c in self.terms.items():
                v = c * x_value**a if a else field.coerce(c)
                coeffs[b] = coeffs.get(b, field.zero) + v
            n = max(coeffs) + 1 if coeffs else 0
            return UniPoly(field, [coeffs.get(i, field.zero) for i in range(n)])
        by_y = {}
        for (a, b, _), c in self.terms.items():
            by_y.setdefault(b, {})[a] = by_y.get(b, {}).get(a, self.field.zero) + c
        n = max(by_y) + 1 if by_y else 0
        out = []
        for b in range(n):
            row = by_y.get(b, {})
            deg = max(row) + 1 if row else 0
            out.append(UniPoly(self.field, [row.get(i, self.field.zero) for i in range(deg)]))
        return out

    def y_degree(self):
        return max((e[1] for e in self.terms), default=-1)

    def reduce_mod(self, g):
        """Remainder of division by the single form g in graded-lex order.

        Since a single polynomial generates its ideal with itself as a
        Groebner basis, the remainder is zero exactly when g divides self.
        """
        if g.is_zero():
            raise ZeroDivisionError("reduction modulo the zero form")
        a, g = self._coerce_pair(g)
        lt_e, lt_c = g.leading()
        rem = {}
        work = dict(a.terms)
        field = a.field
        while work:
            e = max(work)
            c = work[e]
            del work[e]
            if field.is_zero(c):
                continue
            if all(e[i] >= lt_e[i] for i in range(3)):
                q_e = tuple(e[i] - lt_e[i] for i in range(3))
                q_c = c / lt_c
                for ge, gc in g.terms.items():
                    te = (ge[0] + q_e[0], ge[1] + q_e[1], ge[2] + q_e[2])
                    if te == e:
                        continue  # cancels against the removed leading term
                    work[te] = work.get(te, field.zero) - q_c * gc
            else:
                rem[e] = c
        return HomogeneousPoly(field, a.degree if rem else 0, rem)

    def divisible_by(self, g):
        return self.reduce_mod(g).is_zero()

    def normalized(self):
        """Scalar-normalized form: leading graded-lex coefficient equals 1."""
        if self.is_zero():
            return self
        _, c = self.leading()
        inv = 1 / c if not isinstance(c, AlgNum) else c.inverse()
        return self * inv

    def text(self):
        """Canonical human-readable form, graded-lex descending."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{VARS[i]}^{e[i]}" if e[i] > 1 else VARS[i] for i in range(3) if e[i] > 0
            )
            cs = _coeff_text(c)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"{cs}*{mono}")
        s = parts[0]
        for p in parts[1:]:
            s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return s

    def __repr__(self):
        return f"HomogeneousPoly({self.text()})"


def _coeff_text(c):
    if isinstance(c, AlgNum):
        t = c.field.symbol
        parts = []
        for i, v in enumerate(c.coords):
            if v == 0:
                continue
            if i == 0:
                parts.append(str(v))
            else:
                head = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                parts.append(f"{head}{t}" + (f"^{i}" if i > 1 else ""))
        if not parts:
            return "0"
        if len(parts) == 1:
            return parts[0]
        body = parts[0]
        for p in parts[1:]:
            body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return f"({body})"
    return str(c)


def hessian_det(f: HomogeneousPoly) -> HomogeneousPoly:
    """Determinant of the matrix of second partials (a form of degree 3(d-2))."""
    return det3([[f.diff(i).diff(j) for j in range(3)] for i in range(3)])


def euler_check(f: HomogeneousPoly) -> bool:
    """x*f_x + y*f_y + z*f_z = deg(f) * f, a sanity identity for forms."""
    lhs = HomogeneousPoly.zero(f.field)
    for i in range(3):
        lhs = lhs + HomogeneousPoly.variable(i, f.field) * f.diff(i)
    return lhs == f * f.degree
