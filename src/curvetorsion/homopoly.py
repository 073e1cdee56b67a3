"""Sparse homogeneous forms in x, y, z over Q or a number field.

Terms map exponent triples (all summing to the degree) to nonzero
coefficients.  The zero polynomial is the unique empty form of degree 0.
Term order everywhere is graded lexicographic with x > y > z, which makes
printing and hashing canonical.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import QQ, AlgNum, common_field, power
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
        self.field, self.degree, self.terms = field, degree if clean else 0, clean

    @classmethod
    def _trusted(cls, field, degree, terms):
        """Arithmetic results: exponents of the right degree, nonzero field scalars."""
        f = cls.__new__(cls)
        f.field, f.degree, f.terms = field, degree if terms else 0, terms
        return f

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
        return HomogeneousPoly._trusted(field, self.degree, {e: field.coerce(c) for e, c in self.terms.items()})

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
            terms[e] = terms[e] + c if e in terms else c
        return HomogeneousPoly._trusted(a.field, a.degree, _nonzero(a.field, terms))

    def __neg__(self):
        return HomogeneousPoly._trusted(self.field, self.degree, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, AlgNum)):
            field = self.field if not isinstance(other, AlgNum) else common_field(self.field, other.field)
            c = field.coerce(other)
            if field.is_zero(c):
                return HomogeneousPoly.zero(field)
            me = self.to_field(field)
            return HomogeneousPoly._trusted(field, me.degree, {e: v * c for e, v in me.terms.items()})
        a, b = self._coerce_pair(other)
        if a.is_zero() or b.is_zero():
            return HomogeneousPoly.zero(a.field)
        terms = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                prev = terms.get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return HomogeneousPoly._trusted(a.field, a.degree + b.degree, _nonzero(a.field, terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, HomogeneousPoly(self.field, 0, {(0, 0, 0): self.field.one}))

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
        return HomogeneousPoly._trusted(self.field, self.degree - 1, terms)

    def gradient(self):
        return (self.diff(0), self.diff(1), self.diff(2))

    def eval(self, point):
        """Evaluate at a triple of scalars from a compatible field."""
        return self.substitute(*point, self.field.one)

    def substitute(self, x, y, z, one):
        """The form at three elements of a ring with + and *, by Horner's scheme
        (`horner`).  ``one`` is the ring's unit; scalars multiply ring
        elements from the right."""
        acc = horner(self.degree, self.terms, x, y, z, one)
        return one * self.field.zero if acc is None else acc

    def linear_change(self, matrix):
        """f(M.X): substitute each variable by the matching row combination.

        ``matrix`` has rows M[i] so that old variable i becomes
        M[i][0]*x + M[i][1]*y + M[i][2]*z.
        """
        x, y, z = (HomogeneousPoly.linear_form(row, self.field) for row in matrix)
        return self.substitute(x, y, z, HomogeneousPoly(self.field, 0, {(0, 0, 0): self.field.one}))

    def fiber(self, i, point):
        """The form with variable i free and the other two set to their
        entries of ``point`` (entry i is not read), as a UniPoly in variable
        i over the field of those values: the form's field, or the number
        field of an AlgNum entry.

        Each fixed value gets one power table, kept in the value's own type,
        so a rational value such as a chart's 1 costs rational products."""
        j, k = (v for v in range(3) if v != i)
        field = self.field
        tables = []
        for v in (point[j], point[k]):
            if isinstance(v, AlgNum):
                field = common_field(field, v.field)
            powers = [1]
            for _ in range(self.degree):
                powers.append(powers[-1] * v)
            tables.append(powers)
        pj, pk = tables
        coeffs = [0] * (self.degree + 1)
        for e, c in self.terms.items():
            coeffs[e[i]] += c * pk[e[k]] * pj[e[j]]
        return UniPoly(field, coeffs)

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
        return HomogeneousPoly._trusted(field, a.degree, rem)

    def divisible_by(self, g):
        return self.reduce_mod(g).is_zero()

    def normalized(self):
        """Scalar-normalized form: leading graded-lex coefficient equals 1."""
        if self.is_zero():
            return self
        _, c = self.leading()
        return self * (1 / c)

    def text(self):
        """Canonical human-readable form, graded-lex descending."""
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(_power_text(VARS[i], e[i]) for i in range(3) if e[i] > 0)
            parts.append(_term_text(_coeff_text(c), mono))
        return _signed_join(parts)

    def __repr__(self):
        return f"HomogeneousPoly({self.text()})"


def _nonzero(field, terms):
    return {e: c for e, c in terms.items() if not field.is_zero(c)}


def horner(degree, terms, x, y, z, one):
    """sum c * x^a y^b z^e over terms {(a, b, e): c} of the given degree, by
    Horner's scheme; None when there are no terms.

    With f = sum_j y^j a_j(x, z), the outer loop runs acc = acc * y + a_j
    from the top y-degree down; each a_j is evaluated by Horner in x with
    z-powers from one table.  ``one`` is the ring's unit; the scalars c are
    anything that multiplies ring elements from the right.
    """
    zpow = [one]
    for _ in range(degree):
        zpow.append(zpow[-1] * z)
    rows = {}
    for (a, b, _), c in terms.items():
        rows.setdefault(b, {})[a] = c
    acc = None
    for j in range(max(rows, default=-1), -1, -1):
        if acc is not None:
            acc = acc * y
        row = rows.get(j, {})
        aj = None
        for i in range(max(row, default=-1), -1, -1):
            if aj is not None:
                aj = aj * x
            if i in row:
                term = zpow[degree - j - i] * row[i]
                aj = term if aj is None else aj + term
        if aj is not None:
            acc = aj if acc is None else acc + aj
    return acc


def _power_text(name, k):
    return "" if k == 0 else (name if k == 1 else f"{name}^{k}")


def _term_text(coeff, mono):
    """One printed term: the coefficient text alone for an empty monomial,
    else the head "" (coefficient 1), "-" (coefficient -1) or "c*" before it."""
    if not mono:
        return coeff
    return {"1": "", "-1": "-"}.get(coeff, f"{coeff}*") + mono


def _signed_join(parts):
    """Printed terms joined by " + ", or by " - " in place of a leading "-"."""
    s = parts[0]
    for p in parts[1:]:
        s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return s


def generator_poly_text(coeffs, symbol):
    """sum c * symbol^i over the (i, c) pairs in their given order, zero
    coefficients left out; "0" when every coefficient is zero."""
    parts = [_term_text(str(c), _power_text(symbol, i)) for i, c in coeffs if c != 0]
    return _signed_join(parts) if parts else "0"


def _coeff_text(c):
    if not isinstance(c, AlgNum):
        return str(c)
    body = generator_poly_text(enumerate(c.coords), c.field.symbol)
    return f"({body})" if sum(1 for v in c.coords if v != 0) > 1 else body


def hessian_det(f: HomogeneousPoly) -> HomogeneousPoly:
    """Determinant of the matrix of second partials (a form of degree 3(d-2))."""
    return det3([[f.diff(i).diff(j) for j in range(3)] for i in range(3)])


def euler_check(f: HomogeneousPoly) -> bool:
    """x*f_x + y*f_y + z*f_z = deg(f) * f, a sanity identity for forms."""
    lhs = HomogeneousPoly.zero(f.field)
    for i in range(3):
        lhs = lhs + HomogeneousPoly.variable(i, f.field) * f.diff(i)
    return lhs == f * f.degree
