"""Plane curves, intersection divisors, and local analytic data.

Curves are reduced homogeneous forms in x, y, z over Q or one number field.
Intersections of curves over Q are returned as Galois orbits of points
(clusters): an irreducible x-minimal polynomial after a recorded coordinate
shear, plus a polynomial expression for the other affine coordinate.  All
multiplicities are exact; every divisor satisfies the Bezout total.

The same machinery runs over a number field base when every intersection
point is rational over that field; a point that needs a tower of extensions
is refused as NonRationalPointError.

`intersect`, `check_smooth` and `local_param` are pure functions of their
inputs; inside a `GeometryCache` scope their certified results are reused.
"""

from __future__ import annotations

import contextvars
import random
from collections import Counter
from fractions import Fraction

from .fields import QQ, FieldError, NumberField, common_field
from .homopoly import HomogeneousPoly
from .linalg import det3
from .qpoly import factor_rational, squarefree_q
from .series import TruncSeries, eval_form_on_series
from .unipoly import UniPoly, _zz_resultant, gcd as poly_gcd, squarefree_part


class GeometryError(ValueError):
    pass


class CommonComponentError(GeometryError):
    pass


class ShearExhaustedError(GeometryError):
    pass


class NonRationalPointError(GeometryError):
    """An intersection point over a number-field base is not rational over it,
    so its cluster would need a tower of extensions; no shear avoids that."""


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
      truncating it;
    - sheared: forms moved into a chart (nothing to check), keyed by (form, shear).

    `hits` and `misses` count lookups per map.
    """

    MAPS = ("intersections", "verdicts", "branches", "sheared")

    def __init__(self):
        self.intersections = {}
        self.verdicts = {}
        self.branches = {}
        self.sheared = {}
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


def normalize_point(p, field=QQ):
    """The projective point p over the field, scaled so that its first
    nonzero coordinate is 1."""
    coords = [field.coerce(c) for c in p]
    pivot = next((c for c in coords if c != 0), None)
    if pivot is None:
        raise GeometryError("zero vector is not a projective point")
    inv = 1 / pivot
    return tuple(c * inv for c in coords)


def draw_shear(rng, bound=4):
    while True:
        m = tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(3)) for _ in range(3)
        )
        if det3(m) != 0:
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
    x, y, z = (UniPoly(f.field, [b[i], a[i]]) for i in range(3))
    return f.substitute(x, y, z, UniPoly.const(1, f.field))


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
        pt = normalize_point(self.center(), self.field)
        return pt.index(1), pt  # the first nonzero coordinate is 1

    def base_coords(self, v):
        """A value in the cluster field as coordinates over the base field.

        For an orbit of several points these are the power-basis coordinates
        of v; a single point has the base field as its field.
        """
        return v.coords if self.size > 1 else (v,)

    def lies_on(self, curve: PlaneCurve) -> bool:
        return curve.equation.eval(self.center()) == 0

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
    c = normalize_point(point, base_field)
    idx = c.index(1)  # the first nonzero coordinate
    others = [j for j in range(3) if j != idx]
    if curve is not None:
        grads = [curve.equation.diff(i).to_field(base_field).eval(c) for i in range(3)]
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
    i1, pt1 = c1.normalized_center()
    i2, pt2 = c2.normalized_center()
    if i1 != i2:
        return False
    if c1.size == 1:
        return pt1 == pt2
    # the coordinates of c1's points are polynomials in its x-root theta
    field2 = c2.field
    g = UniPoly(field2, c1.x_minpoly.coeffs)
    for j in range(3):
        if j == i1:
            continue
        diff = UniPoly(field2, c1.base_coords(pt1[j])) - UniPoly(field2, [pt2[j]])
        g = poly_gcd(g, diff)
        if g.degree < 1:
            return False
    return g.degree >= 1


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
    """f.linear_change(shear), kept for the request by the active cache."""
    cache = _ACTIVE_CACHE.get()
    if cache is None:
        return f.linear_change(shear)
    key = (f, shear)
    if key in cache.sheared:
        cache.hits["sheared"] += 1
    else:
        cache.misses["sheared"] += 1
        cache.sheared[key] = f.linear_change(shear)
    return cache.sheared[key]


def _slice(f, i):
    """f with the other of y, z set to 1, as {(exponent of variable i, exponent of x): c}."""
    return {(e[i], e[0]): c for e, c in f.terms.items()}


def _root_point(p, s1, c):
    """(theta's field, theta, y0) for a root theta of the monic factor p of the
    resultant: y0 = -c(theta)/s1(theta) from the degree-1 subresultant
    S_1 = s1(x) y + c(x), one reduction modulo p and one inverse.  y0 is None
    when s1(theta) = 0, where the fiber gcd has degree >= 2."""
    if p.degree == 1:
        work_field, theta = p.field, -p.coeffs[0]
        s_th, c_th = s1.eval(theta), c.eval(theta)
    else:
        work_field = NumberField(p.coeffs, symbol="r", trusted=True)
        theta = work_field.gen
        s_th, c_th = (work_field.element((q % p).coeffs) for q in (s1, c))
    if work_field.is_zero(s_th):
        return work_field, theta, None
    return work_field, theta, -(c_th / s_th)


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
    computation.  The y-coordinates come from S_1 of the same chain (see
    `_root_point`).  Over a number-field base a factor of degree > 1 raises
    NonRationalPointError at once.
    """
    key = (d.equation, c.equation, rng_seed, max_shears)
    field = common_field(d.field, c.field)
    if d.field != field:
        d = PlaneCurve(d.equation.to_field(field), d.name, check_reduced=False)
    if c.field != field:
        c = PlaneCurve(c.equation.to_field(field), c.name, check_reduced=False)
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
    rejected = Counter()
    for attempt in range(max_shears):
        shear = IDENTITY_SHEAR if attempt == 0 else draw_shear(rng)
        fa = _shear_polys(d.equation, shear)
        ga = _shear_polys(c.equation, shear)
        if field.is_zero(fa.coeff((0, d0, 0))):
            rejected["projection center on D"] += 1
            continue
        if field.is_zero(ga.coeff((0, d1, 0))):
            rejected["projection center on C"] += 1
            continue
        r, s1, c0 = _zz_resultant(_slice(fa, 1), _slice(ga, 1), field, keep_s1=True)
        if r.is_zero():
            raise CommonComponentError("curves share a component (vanishing resultant)")
        if r.degree != d0 * d1:
            rejected["intersection point outside the affine chart"] += 1
            continue
        _, factors = _factor_base(r)
        if field != QQ and any(p.degree > 1 for p, _ in factors):
            raise NonRationalPointError(
                "nonrational point over a number field base: an intersection point "
                "needs a further extension of the base field"
            )
        clusters = []
        fy = fa.diff(1)
        for p, mult in factors:
            work_field, theta, y0 = _root_point(p, s1, c0)
            if y0 is None:
                rejected["two intersection points share an x-coordinate"] += 1
                break
            if work_field.is_zero(fy.eval((theta, y0, 1))):
                rejected["vertical tangent chart on D"] += 1
                break
            y_rep = UniPoly(field, [y0]) if p.degree == 1 else UniPoly(QQ, list(y0.coords))
            clusters.append((ProjPointCluster(field, p, y_rep, shear), mult))
        else:
            divisor = IntersectionDivisor(d, c, clusters, shear)
            for cl, m in divisor.clusters:
                v = order_along(d, cl, c.equation, cap=m)
                if v != m:
                    raise CertificationError(
                        f"multiplicity cross-check failed: resultant says {m}, valuation says {v}"
                    )
            return divisor
    reasons = ", ".join(f"{reason}: {n}" for reason, n in rejected.most_common())
    raise ShearExhaustedError(f"no good shear found in {max_shears} attempts ({reasons})")


class LocalParam:
    """Power series branch of a smooth curve at a cluster representative.

    In the cluster's sheared chart: X(s) = theta + s, Y(s) = the stored
    series, Z = 1, with the curve equation vanishing mod s^(order+1).
    """

    def __init__(self, cluster, order, y_coeffs):
        self.cluster = cluster
        self.order = order
        self.y_coeffs = tuple(y_coeffs)

    def y_series(self):
        return TruncSeries(self.cluster.field, self.order, self.y_coeffs)

    def chart_series(self):
        field = self.cluster.field
        sx = TruncSeries(field, self.order, [self.cluster.theta(), field.one])
        sz = TruncSeries.constant(field, self.order, field.one)
        return sx, self.y_series(), sz

    def original_series(self):
        """Series for the original x, y, z coordinates along the branch."""
        sx, sy, sz = self.chart_series()
        return tuple(sx * a + sy * b + sz * c for a, b, c in self.cluster.shear)


def local_param(d: PlaneCurve, cluster: ProjPointCluster, order: int) -> LocalParam:
    """Newton lifting of the branch of D through the cluster, exact to s^order.

    Each step doubles the number of known coefficients of Y(s): from m to
    2m it evaluates the sheared equation F and F_y along the branch
    (`eval_form_on_series`) and divides.  Coefficient k depends only on the
    ones before it, so a cached branch of at least this order is truncated,
    and a shorter cached branch is the prefix the lift resumes from.  The
    last evaluation is the re-substitution of the whole branch to s^order.
    """
    cache = _ACTIVE_CACHE.get()
    stored = ()
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
    fy_form = fa.diff(1)
    fy = fy_form.eval((th, y0, 1))
    if field.is_zero(fy):
        if cluster.size == 1:
            # a point given in a degenerate chart can always be re-charted
            rechart = cluster_from_point(cluster.center(), cluster.base_field, curve=d)
            if rechart.shear != cluster.shear:
                return local_param(d, rechart, order)
        raise ChartDegeneracyError("dF/dY vanishes at the center; request a re-shear")
    inv_fy, ys = 1 / fy, list(stored) or [y0]
    while True:
        # Newton step from m to n coefficients: Y - F / F_y mod s^n
        m, n = len(ys), min(2 * len(ys), order + 1)
        q = eval_form_on_series(fa, th, TruncSeries(field, n - 1, ys))
        if m == 1 and not field.is_zero(q.coeff(0)):  # q(0) = F(theta, y0)
            raise GeometryError("cluster does not lie on the curve")
        if m == n:  # q is F along the whole branch to s^order: the re-substitution
            break
        dv = eval_form_on_series(fy_form, th, TruncSeries(field, n - m - 1, ys)).coeffs
        for k in range(m, n):  # F vanishes below s^m; divide by F_y, of constant term fy
            fk = sum((dv[t] * ys[k - t] for t in range(1, k - m + 1)), q.coeff(k))
            ys.append(-(fk * inv_fy))
    if q.valuation() is not None:
        raise CertificationError("re-substitution of the local series does not vanish")
    param = LocalParam(cluster, order, ys)
    if cache is not None:
        cache.branches[key] = param.y_coeffs
    return param


def order_along(d: PlaneCurve, cluster: ProjPointCluster, h: HomogeneousPoly, cap: int):
    """Valuation of h along D's branch at the cluster.

    h is sheared into the branch's chart and evaluated along (theta + s,
    Y(s), 1) to s^cap.  Returns the exact valuation when it is at most cap,
    or None for "greater than cap", so cap = k is the order that decides
    whether the valuation equals k.  Raises VanishesOnCurveError when h is
    divisible by D's equation, since then the restriction is identically
    zero.
    """
    if h.is_zero():
        raise VanishesOnCurveError("the zero form vanishes on the curve")
    if h.degree >= d.degree and h.divisible_by(d.equation):
        raise VanishesOnCurveError("form vanishes identically on the curve")
    param = local_param(d, cluster, cap)
    # the branch's own chart: local_param re-charts a degenerate cluster
    hh = _shear_polys(h, param.cluster.shear)
    return eval_form_on_series(hh, param.cluster.theta(), param.y_series()).valuation()


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
        g = poly_gcd(fa.fiber(2, (theta, 1, None)), fz.fiber(2, (theta, 1, None)))
        if g.degree > 1:
            # at an ordinary triple point the fiber gcd is (z - z0)^2
            g = squarefree_part(g)
        if g.degree != 1:
            continue
        z0 = -(g.coeffs[0] / g.coeffs[1])
        pt = (theta, work_field.one, z0)
        if all(work_field.is_zero(fa.diff(i).to_field(work_field).eval(pt)) for i in range(3)):
            original = apply_shear_to_vector(shear, pt)
            return {"shear": shear, "chart_point": pt, "point": original, "field": work_field}
    return None
