"""Plane curves, intersection divisors, and local analytic data.

Curves are reduced homogeneous forms in x, y, z over Q or one number field.
Intersections of curves over Q are returned as Galois orbits of points
(clusters): an irreducible x-minimal polynomial after a recorded coordinate
shear, plus a polynomial expression for the other affine coordinate.  All
multiplicities are exact; every divisor satisfies the Bezout total.

The same machinery runs over a number field base when every intersection
point is rational over that field (towers of extensions are not supported).

`intersect`, `check_smooth` and `local_param` are pure functions of their
inputs; inside a `GeometryCache` scope their certified results are reused.
"""

from __future__ import annotations

import contextvars
import random
from fractions import Fraction

from .fields import QQ, AlgNum, FieldError, NumberField
from .homopoly import HomogeneousPoly
from .linalg import det_int
from .qpoly import factor_rational, squarefree_q
from .series import TruncSeries, eval_form_on_series
from .unipoly import UniPoly, _zz_resultant, gcd as poly_gcd


class GeometryError(ValueError):
    pass


class CommonComponentError(GeometryError):
    pass


class ShearExhaustedError(GeometryError):
    pass


class ChartDegeneracyError(GeometryError):
    pass


class VanishesOnCurveError(GeometryError):
    """A form restricted to the curve is identically zero."""


class CertificationError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class GeometryCache:
    """Certified results of `intersect`, `check_smooth` and `local_param`.

    Entering the cache as a context manager makes it the one those functions
    use in the current context; outside every scope nothing is cached.  Only
    results whose checks passed are stored, never an exception:

    - intersections: divisors that passed the Bezout total and the valuation
      cross-check, keyed by (D equation, C equation, seed, max shears);
    - verdicts: 'smooth' or 'singular' verdicts keyed by equation.  Both are
      proofs whatever the seed; 'unknown' is recomputed with the caller's
      trials and seed;
    - branches: the longest re-substitution-checked coefficient list per
      (D equation, cluster); a request for a lower order is served by
      truncating it.

    `hits` and `misses` count lookups per map.
    """

    MAPS = ("intersections", "verdicts", "branches")

    def __init__(self):
        self.intersections = {}
        self.verdicts = {}
        self.branches = {}
        self.hits = dict.fromkeys(self.MAPS, 0)
        self.misses = dict.fromkeys(self.MAPS, 0)
        self._token = None

    def __enter__(self):
        self._token = _ACTIVE_CACHE.set(self)
        return self

    def __exit__(self, *exc_info):
        _ACTIVE_CACHE.reset(self._token)
        return False


_ACTIVE_CACHE = contextvars.ContextVar("curvetorsion_geometry_cache", default=None)


IDENTITY_SHEAR = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


def apply_shear_to_vector(shear, v):
    """shear @ v for a 3-vector of field elements."""
    out = []
    for i in range(3):
        acc = None
        for j in range(3):
            term = v[j] * shear[i][j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return tuple(out)


def draw_shear(rng, bound=4):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(3)) for _ in range(3)
        )
        if det_int([[int(c) for c in row] for row in m]) != 0:
            return m


class PlaneCurve:
    """A reduced plane curve given by a nonzero homogeneous form.

    Reducedness (no repeated geometric component) is certified at
    construction by restricting to lines: a restriction of full degree with
    squarefree restriction polynomial is impossible for a non-reduced form.
    """

    def __init__(self, equation: HomogeneousPoly, name: str = "", check_reduced: bool = True):
        if equation.is_zero() or equation.degree < 1:
            raise GeometryError("curve equation must be a nonzero form of degree >= 1")
        self.equation = equation
        self.name = name
        self.reduced_flag = self._certify_reduced() if check_reduced else False
        if check_reduced and not self.reduced_flag:
            raise GeometryError(f"equation of {name or 'curve'} has a repeated component")

    @property
    def degree(self):
        return self.equation.degree

    @property
    def field(self):
        return self.equation.field

    def _certify_reduced(self, trials=12):
        f = self.equation
        if f.degree == 1:
            return True
        rng = random.Random(20230 + f.degree)
        for _ in range(trials):
            a = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
            b = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
            restr = _restrict_to_line(f, a, b)
            if restr.degree != f.degree:
                continue
            if poly_gcd(restr, restr.derivative()).degree == 0:
                return True
        return False

    def same_curve(self, other: "PlaneCurve") -> bool:
        return self.equation.normalized() == other.equation.normalized()

    def __repr__(self):
        label = f"{self.name}: " if self.name else ""
        return f"PlaneCurve({label}{self.equation.text()})"


def _restrict_to_line(f, a, b):
    """f(u*a + b) as a univariate polynomial in u over f's field."""
    field = f.field
    su = UniPoly(field, [b[0], a[0]]), UniPoly(field, [b[1], a[1]]), UniPoly(field, [b[2], a[2]])
    acc = UniPoly.zero(field)
    cache = [{0: UniPoly.const(1, field)} for _ in range(3)]

    def power(i, n):
        c = cache[i]
        if n not in c:
            c[n] = power(i, n - 1) * su[i]
        return c[n]

    for (e0, e1, e2), coeff in f.terms.items():
        acc = acc + power(0, e0) * power(1, e1) * power(2, e2) * coeff
    return acc


class ProjPointCluster:
    """A Galois orbit of projective points over the base field.

    In the sheared chart z = 1 the orbit is {(r, y_rep(r), 1)} over the roots
    r of the irreducible x_minpoly.  The shear maps chart coordinates back:
    original = shear @ (X, Y, 1).
    """

    def __init__(self, base_field, x_minpoly: UniPoly, y_rep: UniPoly, shear):
        if x_minpoly.degree < 1:
            raise GeometryError("cluster needs a nonconstant minimal polynomial")
        if x_minpoly.degree > 1 and base_field != QQ:
            raise FieldError("nonrational clusters over a number field base form a tower")
        self.base_field = base_field
        self.x_minpoly = x_minpoly.monic()
        self.y_rep = y_rep % self.x_minpoly if y_rep.degree >= self.x_minpoly.degree else y_rep
        self.shear = shear
        if x_minpoly.degree == 1:
            self.field = base_field
        else:
            self.field = NumberField(self.x_minpoly.coeffs, symbol="r", trusted=True)

    @property
    def size(self):
        return self.x_minpoly.degree

    def theta(self):
        """The x-chart coordinate of the representative point."""
        if self.size == 1:
            return -self.x_minpoly.coeffs[0]
        return self.field.gen

    def center_sheared(self):
        th = self.theta()
        y0 = self.y_rep.eval(th) if not self.y_rep.is_zero() else self.field.zero
        one = self.field.one if self.size > 1 else self.base_field.one
        return (th, y0, one)

    def center(self):
        """Representative point in original coordinates, over self.field."""
        return apply_shear_to_vector(self.shear, self.center_sheared())

    def normalized_center(self):
        """(chart index, affine coordinates) with first nonzero coord set to 1.

        The chart index is Galois stable, so equal orbits normalize alike.
        """
        pt = self.center()
        for i in range(3):
            c = pt[i]
            if not self.field.is_zero(c):
                inv = 1 / c if not isinstance(c, AlgNum) else c.inverse()
                return i, tuple(v * inv for v in pt)
        raise GeometryError("cluster center is the zero vector")

    def lies_on(self, curve: PlaneCurve) -> bool:
        val = curve.equation.eval(self.center())
        return val == 0 if not isinstance(val, AlgNum) else val.is_zero()

    def __repr__(self):
        return (
            f"ProjPointCluster(size={self.size}, minpoly={self.x_minpoly!r}, y={self.y_rep!r})"
        )


def cluster_from_point(point, base_field=QQ, curve: PlaneCurve | None = None):
    """Degree-1 cluster from an explicit projective point over the base field.

    When the curve is given, the chart is chosen so that the curve is
    Y-regular at the point (the Y-slot gets a coordinate with nonvanishing
    gradient entry), which local parametrizations need.
    """
    coords = [base_field.coerce(c) for c in point]
    idx = next((i for i in range(3) if not base_field.is_zero(coords[i])), None)
    if idx is None:
        raise GeometryError("zero vector is not a projective point")
    inv = 1 / coords[idx] if not isinstance(coords[idx], AlgNum) else coords[idx].inverse()
    c = [v * inv for v in coords]
    others = [j for j in range(3) if j != idx]
    if curve is not None:
        grads = [curve.equation.diff(i).to_field(base_field).eval(tuple(c)) for i in range(3)]
        if not base_field.is_zero(grads[others[0]]) and base_field.is_zero(grads[others[1]]):
            others = [others[1], others[0]]
    shear = [[Fraction(0)] * 3 for _ in range(3)]
    shear[others[0]][0] = Fraction(1)
    shear[others[1]][1] = Fraction(1)
    shear[idx][2] = Fraction(1)
    shear = tuple(tuple(row) for row in shear)
    x_minpoly = UniPoly(base_field, [-c[others[0]], base_field.one])
    y_rep = UniPoly(base_field, [c[others[1]]])
    return ProjPointCluster(base_field, x_minpoly, y_rep, shear)


def _coords_as_polys(cluster):
    """Original coordinates of the normalized center as polynomials in theta."""
    idx, pt = cluster.normalized_center()
    polys = []
    for v in pt:
        if isinstance(v, AlgNum):
            polys.append(list(v.coords))
        else:
            polys.append([v])
    return idx, polys


def same_points(c1: ProjPointCluster, c2: ProjPointCluster) -> bool:
    """Whether two clusters describe the same set of projective points.

    Each cluster is one Galois orbit over the base field, so orbits of equal
    size coincide as soon as they share a single point.  Sharing a point is
    decided by a gcd over the second cluster's field, no factorization needed.
    """
    if c1.base_field != c2.base_field:
        return False
    if c1.size != c2.size:
        return False
    i1, polys1 = _coords_as_polys(c1)
    i2, pt2 = c2.normalized_center()
    if i1 != i2:
        return False
    if c1.size == 1 and c2.size == 1:
        _, pt1 = c1.normalized_center()
        return all(
            (a == b if not isinstance(a, AlgNum) and not isinstance(b, AlgNum) else _alg_eq(a, b))
            for a, b in zip(pt1, pt2)
        )
    field2 = c2.field
    g = UniPoly(field2, [field2.coerce(Fraction(c)) for c in c1.x_minpoly.coeffs])
    for j in range(3):
        if j == i1:
            continue
        coeffs = [field2.coerce(Fraction(c)) for c in polys1[j]]
        diff = UniPoly(field2, coeffs) - UniPoly(field2, [field2.coerce(pt2[j])])
        g = poly_gcd(g, diff)
        if g.degree < 1:
            return False
    return g.degree >= 1


def _alg_eq(a, b):
    if isinstance(a, AlgNum) and isinstance(b, AlgNum):
        return a == b
    if isinstance(a, AlgNum):
        return a.is_rational() and a.as_rational() == b
    if isinstance(b, AlgNum):
        return b.is_rational() and b.as_rational() == a
    return a == b


class IntersectionDivisor:
    """The divisor cut on a smooth curve D by another curve C."""

    def __init__(self, on_curve: PlaneCurve, other: PlaneCurve, clusters, shear):
        self.on_curve = on_curve
        self.other = other
        self.clusters = tuple(clusters)  # (ProjPointCluster, multiplicity)
        self.shear = shear
        total = sum(cl.size * m for cl, m in self.clusters)
        expected = on_curve.degree * other.degree
        if total != expected:
            raise CertificationError(
                f"Bezout violation: local data sums to {total}, expected {expected}"
            )

    def degree(self):
        return sum(cl.size * m for cl, m in self.clusters)

    def multiplicities(self):
        return sorted(m for cl, m in self.clusters for _ in range(cl.size))

    def find(self, cluster):
        for i, (cl, _) in enumerate(self.clusters):
            if same_points(cl, cluster):
                return i
        return None

    def subtract(self, known):
        """Residual after removing (cluster, multiplicity) pairs; must stay effective."""
        remaining = [[cl, m] for cl, m in self.clusters]
        for cluster, mult in known:
            for entry in remaining:
                if same_points(entry[0], cluster):
                    entry[1] -= mult
                    break
            else:
                raise GeometryError("cluster to subtract is not in the divisor")
        if any(m < 0 for _, m in remaining):
            raise GeometryError("subtraction leaves a negative multiplicity")
        return [(cl, m) for cl, m in remaining if m > 0]

    def __repr__(self):
        body = ", ".join(f"{m}x(size {cl.size})" for cl, m in self.clusters)
        return f"IntersectionDivisor({self.on_curve.name or 'D'}.{self.other.name or 'C'}: {body})"


def _shear_polys(f, shear):
    return f.linear_change(shear)


def _slice(f, i):
    """f with the other of y, z set to 1, as {(exponent of variable i, exponent of x): c}."""
    return {(e[i], e[0]): c for e, c in f.terms.items()}


def _fiber_gcd(fa, ga, theta, field):
    u = fa.as_unipoly_in_y(x_value=theta)
    v = ga.as_unipoly_in_y(x_value=theta)
    u = UniPoly(field, [field.coerce(c) for c in u.coeffs])
    v = UniPoly(field, [field.coerce(c) for c in v.coeffs])
    return poly_gcd(u, v)


def _factor_base(r: UniPoly):
    """(unit, [(irreducible factor, multiplicity)]) over the base field."""
    if r.field == QQ:
        return factor_rational(r)
    from .nffactor import factor_over_field

    return factor_over_field(r)


def intersect(d: PlaneCurve, c: PlaneCurve, rng_seed: int = 0, max_shears: int = 32) -> IntersectionDivisor:
    """Intersection divisor of C on the smooth curve D, with exact multiplicities.

    A random coordinate shear is retried until every intersection point lies
    in the affine chart z = 1, has an x-coordinate separating it from all
    other points, and D has a usable vertical tangent chart there.  The
    x-coordinates come from factoring the y-resultant of the z = 1 slices,
    one bivariate resultant over the integers (`unipoly._zz_resultant`); each
    irreducible factor of multiplicity m yields one cluster of local
    multiplicity m, cross-checked afterwards by an independent valuation
    computation.
    """
    key = (d.equation, c.equation, rng_seed, max_shears)
    field = d.field
    if c.field != field:
        if c.field == QQ:
            c = PlaneCurve(c.equation.to_field(field), c.name, check_reduced=False)
        elif field == QQ:
            d = PlaneCurve(d.equation.to_field(c.field), d.name, check_reduced=False)
            field = c.field
        else:
            raise FieldError("curves over incompatible fields")
    cache = _ACTIVE_CACHE.get()
    if cache is None:
        return _intersect_by_shears(d, c, rng_seed, max_shears)
    cached = cache.intersections.get(key)
    if cached is not None:
        cache.hits["intersections"] += 1
        return IntersectionDivisor(d, c, cached.clusters, cached.shear)
    cache.misses["intersections"] += 1
    divisor = _intersect_by_shears(d, c, rng_seed, max_shears)
    cache.intersections[key] = divisor
    return divisor


def _intersect_by_shears(d, c, rng_seed, max_shears):
    """The uncached body of `intersect`, for D and C over one field."""
    field = d.field
    if c.equation.divisible_by(d.equation) or d.equation.divisible_by(c.equation):
        raise CommonComponentError("curves share a component")
    d0, d1 = d.degree, c.degree
    rng = random.Random(rng_seed)
    last_reason = ""
    for attempt in range(max_shears):
        shear = IDENTITY_SHEAR if attempt == 0 else draw_shear(rng)
        fa = _shear_polys(d.equation, shear)
        ga = _shear_polys(c.equation, shear)
        if field.is_zero(fa.coeff((0, d0, 0))):
            last_reason = "projection center on D"
            continue
        if field.is_zero(ga.coeff((0, d1, 0))):
            last_reason = "projection center on C"
            continue
        r = _zz_resultant(_slice(fa, 1), _slice(ga, 1), field)
        if r.is_zero():
            raise CommonComponentError("curves share a component (vanishing resultant)")
        if r.degree != d0 * d1:
            last_reason = "intersection point outside the affine chart"
            continue
        _, factors = _factor_base(r)
        clusters = []
        ok = True
        fy = fa.diff(1)
        for p, mult in factors:
            if p.degree == 1:
                theta = -(p.coeffs[0])
                work_field = field
            elif field == QQ:
                work_field = NumberField(p.coeffs, symbol="r", trusted=True)
                theta = work_field.gen
            else:
                ok, last_reason = False, "nonrational point over a number field base"
                break
            g = _fiber_gcd(fa, ga, theta, work_field)
            if g.degree != 1:
                ok, last_reason = False, "two intersection points share an x-coordinate"
                break
            y0 = -(g.coeffs[0] / g.coeffs[1])
            fy_val = fy.as_unipoly_in_y(x_value=theta).eval(y0)
            if work_field.is_zero(fy_val):
                ok, last_reason = False, "vertical tangent chart on D"
                break
            if p.degree == 1:
                y_rep = UniPoly(field, [y0])
            else:
                y_rep = UniPoly(QQ, list(y0.coords))
            clusters.append((ProjPointCluster(field, p, y_rep, shear), mult))
        if not ok:
            continue
        divisor = IntersectionDivisor(d, c, clusters, shear)
        for cl, m in divisor.clusters:
            v = order_along(d, cl, c.equation, cap=m + 2)
            if v != m:
                raise CertificationError(
                    f"multiplicity cross-check failed: resultant says {m}, valuation says {v}"
                )
        return divisor
    raise ShearExhaustedError(f"no good shear found in {max_shears} attempts ({last_reason})")


class LocalParam:
    """Power series branch of a smooth curve at a cluster representative.

    In the cluster's sheared chart: X(s) = theta + s, Y(s) = the stored
    series, Z = 1, with the curve equation vanishing mod s^(order+1).
    """

    def __init__(self, cluster, order, y_coeffs):
        self.cluster = cluster
        self.order = order
        self.y_coeffs = tuple(y_coeffs)

    def chart_series(self):
        field = self.cluster.field
        th = self.cluster.theta()
        sx = TruncSeries(field, self.order, [th, field.one])
        sy = TruncSeries(field, self.order, list(self.y_coeffs))
        sz = TruncSeries.constant(field, self.order, field.one)
        return sx, sy, sz

    def original_series(self):
        """Series for the original x, y, z coordinates along the branch."""
        field = self.cluster.field
        sx, sy, sz = self.chart_series()
        out = []
        for i in range(3):
            row = self.cluster.shear[i]
            acc = sx.scale(field.coerce(row[0]))
            acc = acc + sy.scale(field.coerce(row[1]))
            acc = acc + sz.scale(field.coerce(row[2]))
            out.append(acc)
        return tuple(out)


def local_param(d: PlaneCurve, cluster: ProjPointCluster, order: int) -> LocalParam:
    """Newton lifting of the branch of D through the cluster, exact to s^order.

    Coefficient k depends only on the ones before it, so a cached branch of
    at least this order is truncated.
    """
    cache = _ACTIVE_CACHE.get()
    if cache is not None:
        key = (d.equation, cluster.x_minpoly, cluster.y_rep, cluster.shear, cluster.base_field)
        stored = cache.branches.get(key, ())
        if len(stored) > order:
            cache.hits["branches"] += 1
            return LocalParam(cluster, order, stored[: order + 1])
        cache.misses["branches"] += 1
    field = cluster.field
    fa = _shear_polys(d.equation, cluster.shear)
    if fa.field != field:
        fa = fa.to_field(field)
    th, y0, _ = cluster.center_sheared()
    fy = fa.diff(1).as_unipoly_in_y(x_value=th).eval(y0)
    if field.is_zero(fy):
        if cluster.size == 1:
            # a point given in a degenerate chart can always be re-charted
            rechart = cluster_from_point(cluster.center(), cluster.base_field, curve=d)
            if rechart.shear != cluster.shear:
                return local_param(d, rechart, order)
        raise ChartDegeneracyError("dF/dY vanishes at the center; request a re-shear")
    check0 = fa.as_unipoly_in_y(x_value=th).eval(y0)
    if not field.is_zero(check0):
        raise GeometryError("cluster does not lie on the curve")
    inv_fy = 1 / fy if not isinstance(fy, AlgNum) else fy.inverse()
    ys = [y0]
    for k in range(1, order + 1):
        sx = TruncSeries(field, k, [th, field.one])
        sy = TruncSeries(field, k, ys)
        sz = TruncSeries.constant(field, k, field.one)
        val = eval_form_on_series(fa, sx, sy, sz)
        ck = -(val.coeff(k) * inv_fy)
        ys.append(ck)
    param = LocalParam(cluster, order, ys)
    sx, sy, sz = param.chart_series()
    resid = eval_form_on_series(fa, sx, sy, sz)
    if resid.valuation() is not None:
        raise CertificationError("re-substitution of the local series does not vanish")
    if cache is not None:
        cache.branches[key] = param.y_coeffs
    return param


def order_along(d: PlaneCurve, cluster: ProjPointCluster, h: HomogeneousPoly, cap: int):
    """Valuation of h along D's branch at the cluster.

    Returns the exact valuation when it is at most cap, or None for
    "greater than cap".  Raises VanishesOnCurveError when h is divisible by
    D's equation, since then the restriction is identically zero.
    """
    if h.is_zero():
        raise VanishesOnCurveError("the zero form vanishes on the curve")
    if h.degree >= d.degree and h.divisible_by(d.equation):
        raise VanishesOnCurveError("form vanishes identically on the curve")
    param = local_param(d, cluster, cap)
    field = cluster.field
    sx, sy, sz = param.original_series()
    hh = h if h.field == field else h.to_field(field)
    val = eval_form_on_series(hh, sx, sy, sz)
    return val.valuation()


def eval_at_cluster(h: HomogeneousPoly, cluster: ProjPointCluster):
    """Value of a form at the cluster's representative point."""
    hh = h if h.field == cluster.field else h.to_field(cluster.field)
    return hh.eval(cluster.center())


def polar_curve(c: PlaneCurve, p) -> HomogeneousPoly:
    """First polar of the curve with respect to a point: sum p_i * df/dx_i."""
    if all(x == 0 for x in p):
        raise GeometryError("polar with respect to the zero vector")
    f = c.equation
    out = HomogeneousPoly.zero(f.field)
    for i in range(3):
        if p[i] != 0:
            out = out + f.diff(i) * Fraction(p[i])
    return out


class SmoothnessVerdict:
    """Outcome of the smoothness test: 'smooth', 'singular', or 'unknown'."""

    def __init__(self, kind, certificate=None, witness=None, trials_used=0):
        self.kind = kind
        self.certificate = certificate
        self.witness = witness
        self.trials_used = trials_used

    @property
    def is_smooth(self):
        return self.kind == "smooth"

    def __repr__(self):
        return f"SmoothnessVerdict({self.kind})"


def check_smooth(c: PlaneCurve, trials: int = 8, rng_seed: int = 0) -> SmoothnessVerdict:
    """One-sided certificates for smoothness or a singular witness point.

    Smoothness certificate: after a coordinate change keeping the projection
    center off the curve, the z-discriminant is a squarefree binary form of
    the full degree d(d-1).  Any singular point forces a repeated factor
    under every such projection, so a squarefree discriminant is a proof.
    A singular verdict always carries an explicit witness where the whole
    gradient vanishes.  If neither certificate is found the verdict is
    'unknown'.  A verdict served from the cache reports no trials used.
    """
    cache = _ACTIVE_CACHE.get()
    if cache is None:
        return _check_smooth(c.equation, trials, rng_seed)
    cached = cache.verdicts.get(c.equation)
    if cached is not None:
        cache.hits["verdicts"] += 1
        return SmoothnessVerdict(cached.kind, cached.certificate, cached.witness)
    cache.misses["verdicts"] += 1
    verdict = _check_smooth(c.equation, trials, rng_seed)
    if verdict.kind != "unknown":
        cache.verdicts[c.equation] = verdict
    return verdict


def _check_smooth(f, trials, rng_seed):
    d = f.degree
    if d == 1:
        return SmoothnessVerdict("smooth", certificate={"reason": "degree 1"})
    rng = random.Random(rng_seed)
    n = d * (d - 1)
    for attempt in range(trials):
        shear = IDENTITY_SHEAR if attempt == 0 else draw_shear(rng)
        fa = _shear_polys(f, shear)
        if fa.field.is_zero(fa.coeff((0, 0, d))):
            continue
        disc = _zz_resultant(_slice(fa, 2), _slice(fa.diff(2), 2), fa.field)
        if disc.degree == n and _squarefree_over(disc):
            return SmoothnessVerdict(
                "smooth",
                certificate={"shear": shear, "disc_degree": n},
                trials_used=attempt + 1,
            )
        witness = _singular_witness(fa, shear, disc)
        if witness is not None:
            return SmoothnessVerdict("singular", witness=witness, trials_used=attempt + 1)
    return SmoothnessVerdict("unknown", trials_used=trials)


def _squarefree_over(p: UniPoly) -> bool:
    if p.field == QQ:
        return squarefree_q(p)
    return poly_gcd(p, p.derivative()).degree == 0


def _slice_y1(f, x0):
    """f(x0, 1, z) as a univariate polynomial in z."""
    field = f.field
    coeffs = {}
    for (a, _, cc), coeff in f.terms.items():
        v = coeff * x0**a if a else coeff
        coeffs[cc] = coeffs.get(cc, field.zero) + v
    n = max(coeffs) + 1 if coeffs else 0
    return UniPoly(field, [coeffs.get(i, field.zero) for i in range(n)])


def _singular_witness(fa, shear, disc):
    """Look for a common zero of the gradient over a repeated factor of the
    z-discriminant `disc` in the current chart."""
    if fa.field != QQ or disc.is_zero():
        return None
    fz = fa.diff(2)
    _, factors = factor_rational(disc)
    for p, mult in factors:
        if mult < 2:
            continue
        if p.degree == 1:
            work_field, theta = QQ, -p.coeffs[0]
        else:
            work_field = NumberField(p.coeffs, symbol="r", trusted=True)
            theta = work_field.gen
        g = poly_gcd(_slice_y1(fa.to_field(work_field), theta), _slice_y1(fz.to_field(work_field), theta))
        if g.degree != 1:
            continue
        z0 = -(g.coeffs[0] / g.coeffs[1])
        pt = (theta, work_field.one, z0)
        if all(work_field.is_zero(fa.diff(i).to_field(work_field).eval(pt)) for i in range(3)):
            original = apply_shear_to_vector(shear, pt)
            return {"shear": shear, "chart_point": pt, "point": original, "field": work_field}
    return None
