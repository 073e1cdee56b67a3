"""Chord-tangent group law on a smooth plane cubic with an inflection origin.

This is the independent oracle for torsion orders on cubics: divisor classes
are reduced to a single rational point by summing Galois orbits through
auxiliary rational lines and conics (all points of a curve section of degree
e sum to zero when the origin is an inflection), after which the order is
read off by repeated addition.  Nothing here shares code with the linear
system route in picard.py beyond basic polynomial arithmetic and reading
point coordinates; in particular it solves no principality system.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import (
    GeometryError,
    PlaneCurve,
    ProjPointCluster,
    check_smooth,
    cluster_from_point,
    intersect,
    normalize_point,
    _restrict_to_line,
)
from .fields import QQ
from .homopoly import HomogeneousPoly, hessian_det, monomials
from .linalg import kernel_basis


class OracleUnavailableError(GeometryError):
    """The chord-tangent oracle cannot handle this input; the linear system
    route remains authoritative."""


def _proportional(p, q):
    return normalize_point(p) == normalize_point(q)


class EllipticChart:
    """A smooth cubic with a chosen rational inflection as the group origin."""

    def __init__(self, cubic: PlaneCurve, origin):
        if cubic.degree != 3:
            raise GeometryError("elliptic chart needs a cubic")
        if not check_smooth(cubic).is_smooth:
            raise GeometryError("cubic is not certified smooth")
        self.cubic = cubic
        self.origin = normalize_point(origin)
        if not self._on_curve(self.origin):
            raise GeometryError("origin does not lie on the cubic")
        if not _proportional(self._third(self.origin, self.origin), self.origin):
            raise GeometryError("origin is not an inflection point")

    @classmethod
    def with_rational_inflection(cls, cubic: PlaneCurve, rng_seed: int = 0):
        """Chart at some rational inflection found via the Hessian."""
        hess = hessian_det(cubic.equation)
        hcurve = PlaneCurve(hess, "hessian", check_reduced=False)
        div = intersect(cubic, hcurve, rng_seed=rng_seed)
        for cl, _ in div.clusters:
            if cl.size == 1:
                return cls(cubic, cl.center())
        raise OracleUnavailableError("cubic has no rational inflection point")

    def _on_curve(self, p):
        return self.cubic.equation.eval(p) == 0

    def _tangent_partner(self, p):
        """A point other than p on the tangent line at p."""
        g = [d.eval(p) for d in self.cubic.equation.gradient()]
        candidates = [
            (g[1], -g[0], Fraction(0)),
            (g[2], Fraction(0), -g[0]),
            (Fraction(0), g[2], -g[1]),
        ]
        for w in candidates:
            if any(c != 0 for c in w) and not _proportional(w, p):
                return w
        raise GeometryError("gradient vanishes; the cubic is singular at the point")

    def _third(self, p, q):
        """Third intersection of the line through p and q (tangent when equal)."""
        f = self.cubic.equation
        if not _proportional(p, q):
            t = _restrict_to_line(f, p, q)  # f(u*p + q), cubic in u
            c = list(t.coeffs) + [Fraction(0)] * (4 - len(t.coeffs))
            if c[3] != 0 or c[0] != 0:
                raise GeometryError("chord endpoints do not lie on the cubic")
            if c[2] == 0 and c[1] == 0:
                raise GeometryError("line is contained in the cubic")
            if c[2] == 0:
                return normalize_point(p)
            u = -c[1] / c[2]
            return normalize_point(tuple(u * a + b for a, b in zip(p, q)))
        w = self._tangent_partner(p)
        t = _restrict_to_line(f, p, w)
        c = list(t.coeffs) + [Fraction(0)] * (4 - len(t.coeffs))
        if c[3] != 0 or c[2] != 0:
            raise GeometryError("tangent construction failed; point not on curve?")
        if c[1] == 0:
            return normalize_point(p)  # inflection: tangent meets triply
        u = -c[0] / c[1]
        return normalize_point(tuple(u * a + b for a, b in zip(p, w)))

    def neg(self, p):
        return self._third(normalize_point(p), self.origin)

    def add(self, p, q):
        s = self._third(normalize_point(p), normalize_point(q))
        return self._third(s, self.origin)

    def mul(self, k: int, p):
        if k == 0:
            return self.origin
        if k < 0:
            return self.mul(-k, self.neg(p))
        acc = self.origin
        base = normalize_point(p)
        while k:
            if k & 1:
                acc = self.add(acc, base)
            base = self.add(base, base)
            k >>= 1
        return acc

    def is_origin(self, p):
        return _proportional(p, self.origin)

    def point_order(self, p, cap: int):
        """Least k <= cap with k*p = origin, else None."""
        acc = normalize_point(p)
        for k in range(1, cap + 1):
            if self.is_origin(acc):
                return k
            acc = self.add(acc, p)
        return None


def monomial_row(p, monos):
    """Values of the monomials at the point p, over the field of p."""
    return [p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2] for e in monos]


def origin_tangency_row(chart: EllipticChart, monos):
    """Derivatives of the monomials at the origin along its tangent line.

    A form whose coefficients annihilate this row, and which vanishes at the
    origin, is tangent to the cubic there.
    """
    o = chart.origin
    w = chart._tangent_partner(o)
    row = []
    for e in monos:
        s = Fraction(0)
        for i in range(3):
            if e[i]:
                v = Fraction(e[i])
                for j in range(3):
                    v *= o[j] ** (e[j] - (1 if j == i else 0))
                s += v * w[i]
        row.append(s)
    return row


def _orbit_rows(cluster: ProjPointCluster, monos):
    """Rational rows forcing a form (in the monomial basis) through the orbit."""
    values = monomial_row(cluster.center(), monos)
    return [list(row) for row in zip(*(cluster.base_coords(v) for v in values))]


def orbit_sum(chart: EllipticChart, cluster: ProjPointCluster):
    """Group sum of all points in a Galois orbit on the cubic, as a rational point.

    Orbits of size 2 use the rational chord through the pair; sizes 3 and 4
    use an auxiliary conic through the orbit and the origin (doubled for
    size 3), exploiting that any full curve section sums to the origin.
    """
    if cluster.base_field != QQ:
        raise OracleUnavailableError("oracle works over the rational base field")
    r = cluster.size
    if r == 1:
        return normalize_point(cluster.center())
    if r > 4:
        raise OracleUnavailableError(f"orbit of degree {r} exceeds the oracle's field limit")
    E = chart.cubic
    if r == 2:
        monos = monomials(1)
        rows = _orbit_rows(cluster, monos)
        line_vec = kernel_basis(rows, 3, QQ)
        line = HomogeneousPoly(QQ, 1, {e: c for e, c in zip(monos, line_vec[0])})
        lcurve = PlaneCurve(line, "chord", check_reduced=False)
        div = intersect(E, lcurve)
        residual = div.subtract([(cluster, 1)])
        t = _single_rational_point(residual)
        return chart.neg(t)
    # size 3: orbit may be collinear, in which case it sums to the origin
    monos = monomials(1)
    rows = _orbit_rows(cluster, monos)
    if r == 3 and kernel_basis(rows, 3, QQ):
        return chart.origin
    monos2 = monomials(2)
    rows2 = _orbit_rows(cluster, monos2)
    o = chart.origin
    rows2.append(monomial_row(o, monos2))
    known = [(cluster, 1)]
    if r == 3:
        # tangency at the origin, along the inflection tangent
        rows2.append(origin_tangency_row(chart, monos2))
        known.append((cluster_from_point(o, curve=E), 2))
    else:
        known.append((cluster_from_point(o, curve=E), 1))
    sol = kernel_basis(rows2, len(monos2), QQ)
    if not sol:
        raise OracleUnavailableError("no auxiliary conic through the orbit")
    conic = HomogeneousPoly(QQ, 2, {e: c for e, c in zip(monos2, sol[0])})
    ccurve = PlaneCurve(conic, "aux", check_reduced=False)
    div = intersect(E, ccurve)
    residual = div.subtract(known)
    acc = chart.origin
    for cl, mult in residual:
        if cl.size != 1:
            raise OracleUnavailableError("auxiliary section has a nonrational residual")
        pt = normalize_point(cl.center())
        for _ in range(mult):
            acc = chart.add(acc, pt)
    return chart.neg(acc)


def _single_rational_point(residual):
    if len(residual) != 1 or residual[0][0].size != 1 or residual[0][1] != 1:
        raise OracleUnavailableError("residual is not a single rational point")
    return normalize_point(residual[0][0].center())


def elliptic_class_order(chart: EllipticChart, cls, cap: int):
    """Order of a degree-zero divisor class via the group law, or None if > cap.

    The class sum(m_i * orbit_i) - q * (line section) maps to the group
    element sum(m_i * orbit_sum_i) because line sections vanish when the
    origin is an inflection.
    """
    if cls.effective_degree() != cls.o_multiple * 3:
        raise GeometryError("class is not of degree zero")
    g = chart.origin
    for cluster, mult in cls.effective:
        s = orbit_sum(chart, cluster)
        g = chart.add(g, chart.mul(mult, s))
    return chart.point_order(g, cap)
