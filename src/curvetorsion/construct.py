"""Systematic builders for curve pairs with prescribed intersection torsion.

All randomness flows through explicit seeds, draws use a bounded integer
coefficient box, and every genericity claim is converted into an exact
post-hoc certificate with bounded retries.  A failed certificate always
retries with fresh draws; a certificate that contradicts the predicted
invariants raises, because that would mean the implementation is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .covers import Decomposition, Part
from .curves import (
    CertificationError,
    CommonComponentError,
    GeometryError,
    PlaneCurve,
    check_smooth,
    cluster_from_point,
    eval_at_cluster,
    intersect,
    order_along,
)
from .elliptic import EllipticChart, normalize_point
from .fields import QQ, AlgNum
from .homopoly import HomogeneousPoly, hessian_det, monomials
from .linalg import det3
from .picard import DivisorClass, PicardContext, is_principal, torsion_order


class ConstructionError(GeometryError):
    pass


@dataclass
class ConstructionStep:
    kind: str
    parameters: dict
    rng_seed: int


@dataclass
class TypedPair:
    """A pair D + C with constant local intersection number n and torsion nu."""

    d: PlaneCurve
    c: PlaneCurve
    n: int
    nu: int
    provenance: list = dc_field(default_factory=list)

    @property
    def type_tuple(self):
        return (self.d.degree, self.c.degree, self.n, self.nu)


@dataclass
class VerifyReport:
    ok: bool
    failures: list
    n: int | None = None
    nu: int | None = None
    pair: TypedPair | None = None


def rand_form(degree, rng, box=3, field=QQ):
    while True:
        terms = {e: Fraction(rng.randint(-box, box)) for e in monomials(degree)}
        if any(c != 0 for c in terms.values()):
            return HomogeneousPoly(field, degree, terms)


def verify_type(d: PlaneCurve, c: PlaneCurve, rng_seed: int = 0, trials: int = 8) -> VerifyReport:
    """Certify that D + C has one constant local intersection number n and
    compute the exact torsion order nu of its class.  All failures are
    collected into a structured report instead of raising."""
    failures = []
    if d.degree > c.degree:
        failures.append(f"degree order violated: deg D = {d.degree} > deg C = {c.degree}")
    vd = check_smooth(d, trials=trials, rng_seed=rng_seed)
    if not vd.is_smooth:
        failures.append(f"D is not certified smooth ({vd.kind})")
    vc = check_smooth(c, trials=trials, rng_seed=rng_seed)
    if not vc.is_smooth:
        failures.append(f"C is not certified smooth ({vc.kind})")
    if failures:
        return VerifyReport(False, failures)
    try:
        div = intersect(d, c, rng_seed=rng_seed)
    except CommonComponentError:
        return VerifyReport(False, ["curves share a component"])
    mults = {m for _, m in div.clusters}
    if len(mults) != 1:
        return VerifyReport(
            False, [f"multiplicities not constant: {sorted(div.multiplicities())}"]
        )
    n = mults.pop()
    if c.degree % n != 0:
        return VerifyReport(False, [f"local number {n} does not divide deg C = {c.degree}"])
    ctx = PicardContext(d, rng_seed=rng_seed)
    cls = DivisorClass(
        ctx, [(cl, 1) for cl, _ in div.clusters], Fraction(c.degree, n), check_membership=False
    )
    res = torsion_order(cls, n)
    if res.order is None:
        return VerifyReport(False, [f"no torsion order dividing {n} found; invariant broken"])
    pair = TypedPair(d, c, n, res.order)
    return VerifyReport(True, [], n=n, nu=res.order, pair=pair)


def _verified_pair(d, c, rng_seed, provenance) -> TypedPair:
    rep = verify_type(d, c, rng_seed=rng_seed)
    if not rep.ok:
        raise CertificationError(f"type verification failed: {rep.failures}")
    rep.pair.provenance = provenance
    return rep.pair


def transversal_seed(d0: int, d1: int, rng_seed: int = 0, retries: int = 32) -> TypedPair:
    """Random smooth curves of the given degrees meeting transversally."""
    if d0 > d1:
        raise ConstructionError("transversal seeds need d0 <= d1")
    rng = random.Random(rng_seed)
    step = ConstructionStep("transversal_seed", {"d0": d0, "d1": d1}, rng_seed)
    for _ in range(retries):
        try:
            d = PlaneCurve(rand_form(d0, rng), f"D{d0}")
            c = PlaneCurve(rand_form(d1, rng), f"C{d1}")
        except GeometryError:
            continue
        if not check_smooth(d, rng_seed=rng_seed).is_smooth:
            continue
        if not check_smooth(c, rng_seed=rng_seed).is_smooth:
            continue
        try:
            div = intersect(d, c, rng_seed=rng_seed)
        except (CommonComponentError, GeometryError):
            continue
        if any(m != 1 for _, m in div.clusters):
            continue
        pair = _verified_pair(d, c, rng_seed, [step])
        if pair.n != 1 or pair.nu != 1:
            raise CertificationError("transversal pair did not verify as type (d0,d1;1,1)")
        return pair
    raise ConstructionError(f"no transversal pair of degrees ({d0},{d1}) in {retries} draws")


def power_of_k(pair: TypedPair, k: int, rng_seed: int = 0, retries: int = 32) -> TypedPair:
    """Replace D by a smooth member of |k*D| through the intersection scheme.

    From D: f0 = 0 and C: f1 = 0 of type (d0,d1;n,nu), the curve
    B: f0^k + f1*g' = 0 for a general g' of degree k*d0 - d1 is smooth, and
    B + C has type (d1, k*d0; k*n, nu') with nu' = n when n | d0 and
    d0 < d1, and nu' = nu when d0 = d1.  The predicted nu' is recomputed
    from scratch; disagreement is an error, not a retry.
    """
    d0, d1, n, nu = pair.type_tuple
    if k * d0 < d1:
        raise ConstructionError(f"need k*d0 >= d1, got {k}*{d0} < {d1}")
    if not ((d0 % n == 0 and d0 < d1) or d0 == d1):
        raise ConstructionError(
            "typed conclusion needs d0 = d1 or (n | d0 and d0 < d1)"
        )
    predicted_nu = n if d0 < d1 else nu
    predicted_n = k * n
    f0 = pair.d.equation
    f1 = pair.c.equation
    rng = random.Random(rng_seed)
    div = intersect(pair.d, pair.c, rng_seed=rng_seed)
    step = ConstructionStep("power_of_k", {"k": k, "from": pair.type_tuple}, rng_seed)
    gdeg = k * d0 - d1
    for _ in range(retries):
        g = rand_form(gdeg, rng)
        bad = False
        for cl, _ in div.clusters:
            v = eval_at_cluster(g, cl)
            if (v == 0) if not isinstance(v, AlgNum) else v.is_zero():
                bad = True
                break
        if bad:
            continue
        b_eq = f0**k + f1 * g
        try:
            b = PlaneCurve(b_eq, f"B{k * d0}")
        except GeometryError:
            continue
        if not check_smooth(b, rng_seed=rng_seed).is_smooth:
            continue
        new_pair = _verified_pair(pair.c, b, rng_seed, pair.provenance + [step])
        if new_pair.n != predicted_n or new_pair.nu != predicted_nu:
            raise CertificationError(
                f"power-of-{k} prediction ({predicted_n},{predicted_nu}) "
                f"contradicted by recomputation ({new_pair.n},{new_pair.nu})"
            )
        return new_pair
    raise ConstructionError(f"no general form of degree {gdeg} found in {retries} draws")


def _inflection_clusters(cubic: PlaneCurve, rng_seed=0):
    hess = PlaneCurve(hessian_det(cubic.equation), "hessian", check_reduced=False)
    div = intersect(cubic, hess, rng_seed=rng_seed)
    return [cl for cl, _ in div.clusters]


def _tangent_line_at(cubic: PlaneCurve, cluster):
    """Tangent line of the curve at the cluster's representative point."""
    field = cluster.field
    center = cluster.center()
    coeffs = []
    for i in range(3):
        g = cubic.equation.diff(i)
        gg = g if g.field == field else g.to_field(field)
        coeffs.append(gg.eval(center))
    if all(field.is_zero(c) for c in coeffs):
        raise ConstructionError("gradient vanishes; curve is singular at the point")
    return HomogeneousPoly(
        field, 1, {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]}
    ).normalized()


def _conjugate_form(form: HomogeneousPoly) -> HomogeneousPoly:
    field = form.field
    return HomogeneousPoly(
        field, form.degree, {e: field.conjugate(c) for e, c in form.terms.items()}
    )


def _lines_not_concurrent(lines):
    """Determinant test on the coefficient rows, over the common field."""
    field = QQ
    for l in lines:
        if l.field != QQ:
            field = l.field
    rows = []
    for l in lines:
        ll = l if l.field == field else l.to_field(field)
        rows.append(
            [ll.coeff((1, 0, 0)), ll.coeff((0, 1, 0)), ll.coeff((0, 0, 1))]
        )
    return not field.is_zero(field.coerce(det3(rows)))


def artal_arrangement(cubic: PlaneCurve, collinear: bool, rng_seed: int = 0) -> Decomposition:
    """A smooth cubic with three tangent lines at inflection points.

    The inflection triple is chosen with the requested collinearity, decided
    by an exact determinant over the cluster field.  Supported triples are
    Galois stable: three rational inflections, or one rational inflection
    plus a conjugate quadratic pair (the tangent-line product is then
    rational).  The three lines are certified non-concurrent.
    """
    if cubic.degree != 3:
        raise ConstructionError("inflection-tangent arrangements need a cubic")
    clusters = _inflection_clusters(cubic, rng_seed)
    singles = [cl for cl in clusters if cl.size == 1]
    pairs = [cl for cl in clusters if cl.size == 2]
    candidates = []
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            for k in range(j + 1, len(singles)):
                candidates.append((singles[i], singles[j], singles[k]))
    for s in singles:
        for p in pairs:
            candidates.append((s, p))
    for triple in candidates:
        is_col = _triple_collinear(triple)
        if is_col != collinear:
            continue
        lines = []
        line_curves = []
        for cl in triple:
            line = _tangent_line_at(cubic, cl)
            if cl.size == 1:
                if line.field != QQ:
                    line = _to_rational(line)
                lines.append(line)
                line_curves.append(PlaneCurve(line, f"T{len(line_curves) + 1}"))
            else:
                conj = _conjugate_form(line)
                lines.extend([line, conj])
                line_curves.append(PlaneCurve(line, f"T{len(line_curves) + 1}", check_reduced=False))
                line_curves.append(PlaneCurve(conj, f"T{len(line_curves) + 1}", check_reduced=False))
        if len({l.normalized().text() for l in lines}) != 3:
            continue
        if not _lines_not_concurrent(lines):
            continue
        for cl in triple:
            line = _tangent_line_at(cubic, cl)
            if order_along(cubic, cl, line, cap=4) != 3:
                raise CertificationError("inflection tangent does not meet triply")
        dec = Decomposition(
            cubic,
            [Part(tuple(line_curves), "triangle")],
            rng_seed=rng_seed,
            name="collinear" if collinear else "noncollinear",
        )
        return dec
    raise ConstructionError(
        "no Galois-stable inflection triple with the requested collinearity exists "
        "over the supported fields (a cubic inflection cluster would need an extension, "
        "e.g. adjoining a cube root of unity for non-rational Fermat triples)"
    )


def _to_rational(form: HomogeneousPoly) -> HomogeneousPoly:
    terms = {}
    for e, c in form.terms.items():
        if isinstance(c, AlgNum):
            terms[e] = c.as_rational()
        else:
            terms[e] = c
    return HomogeneousPoly(QQ, form.degree, terms)


def _triple_collinear(triple) -> bool:
    if len(triple) == 3:
        return _rational_collinear([cl.center() for cl in triple])
    single, pair = triple
    field = pair.field
    if field.degree != 2:
        raise ConstructionError("collinearity over clusters of degree > 2 is unsupported")
    p1 = [field.coerce(Fraction(c) if not isinstance(c, AlgNum) else c) for c in single.center()]
    p2 = list(pair.center())
    p3 = [field.conjugate(c) for c in p2]
    return field.is_zero(det3([p1, p2, p3]))


@dataclass
class TangentLine:
    tangency_cluster: object
    line: HomogeneousPoly


def tangent_lines_through(cubic: PlaneCurve, p) -> list:
    """The four tangent lines to a smooth cubic through a generic point of it.

    Found as the residual intersection of the polar conic: the polar cuts
    2*p plus the four tangency points.  Each line is certified tangent
    (local intersection 2 at its tangency point) and through p.
    """
    if not check_smooth(cubic).is_smooth:
        raise ConstructionError("tangent lines need a certified smooth cubic")
    from .curves import polar_curve

    p = normalize_point(p)
    if cubic.equation.eval(p) != 0:
        raise ConstructionError("base point must lie on the cubic")
    polar = PlaneCurve(polar_curve(cubic, p), "polar", check_reduced=False)
    div = intersect(cubic, polar)
    p_cluster = cluster_from_point(p, curve=cubic)
    idx = div.find(p_cluster)
    if idx is None:
        raise CertificationError("polar does not pass through the base point")
    p_mult = div.clusters[idx][1]
    if p_mult >= 3:
        raise ConstructionError("base point is an inflection; tangent count degenerates")
    residual = div.subtract([(div.clusters[idx][0], p_mult)])
    if any(m != 1 for _, m in residual) or sum(cl.size for cl, _ in residual) != 4:
        raise ConstructionError("base point is not generic: tangency points collide")
    out = []
    for cl, _ in residual:
        field = cl.field
        q = cl.center()
        pp = [field.coerce(Fraction(c)) for c in p]
        line = HomogeneousPoly(
            field,
            1,
            {
                (1, 0, 0): pp[1] * q[2] - pp[2] * q[1],
                (0, 1, 0): pp[2] * q[0] - pp[0] * q[2],
                (0, 0, 1): pp[0] * q[1] - pp[1] * q[0],
            },
        )
        if order_along(cubic, cl, line, cap=4) != 2:
            raise CertificationError("constructed line is not a simple tangent")
        out.append(TangentLine(cl, line))
    out.sort(key=lambda t: (t.tangency_cluster.size, t.line.normalized().text()))
    return out


TANGENT_MODEL_CUBIC = {(0, 2, 1): 1, (3, 0, 0): -1, (1, 0, 2): 36}


def tangent_quadruple_arrangements(rng_seed: int = 0):
    """Two decompositions of cubic-plus-four-tangent-lines arrangements whose
    class groups differ: the parts pair tangent lines through two base points
    so the two part classes agree for one arrangement and differ for the other.

    Built on y^2 z = x^3 - 36 x z^2, which has full rational two-torsion and
    the rational non-torsion point (-3, 9), so all eight tangent lines are
    rational.  The expected group invariants are re-verified from scratch by
    the caller through the relation lattice.
    """
    E = PlaneCurve(HomogeneousPoly.from_terms(TANGENT_MODEL_CUBIC), "E")
    chart = EllipticChart(E, (0, 1, 0))
    q0 = (Fraction(-3), Fraction(9), Fraction(1))
    two_torsion = [
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(6), Fraction(0), Fraction(1)),
        (Fraction(-6), Fraction(0), Fraction(1)),
    ]
    p1 = chart.neg(chart.mul(2, q0))
    p2 = chart.mul(2, q0)
    base1 = [q0] + [chart.add(q0, t) for t in two_torsion]
    mq0 = chart.neg(q0)
    base2 = [mq0] + [chart.add(mq0, t) for t in two_torsion]

    def line_through(a, b, name):
        a, b = normalize_point(a), normalize_point(b)
        coeffs = (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
        form = HomogeneousPoly.from_terms(
            {(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]}
        )
        return PlaneCurve(form.normalized(), name)

    # pair lines by their two-torsion translate: {0, T1} on both base points
    # makes the two part classes equal; switching one pair to {0, T2} breaks it
    l1a = line_through(p1, base1[0], "L11")
    l1b = line_through(p1, base1[1], "L12")
    l2a = line_through(p2, base2[0], "L21")
    l2b = line_through(p2, base2[1], "L22")
    l2c = line_through(p2, base2[2], "L22x")
    for line, q in [
        (l1a, base1[0]),
        (l1b, base1[1]),
        (l2a, base2[0]),
        (l2b, base2[1]),
        (l2c, base2[2]),
    ]:
        cl = cluster_from_point(q, curve=E)
        if order_along(E, cl, line.equation, cap=4) != 2:
            raise CertificationError("model tangent line failed its tangency check")
    dec_equal = Decomposition(
        E,
        [Part((l1a, l1b), "pair1"), Part((l2a, l2b), "pair2")],
        rng_seed=rng_seed,
        name="equal-classes",
    )
    dec_diff = Decomposition(
        E,
        [Part((l1a, l1b), "pair1"), Part((l2a, l2c), "pair2")],
        rng_seed=rng_seed,
        name="distinct-classes",
    )
    return dec_equal, dec_diff


QUARTIC_SEXTIC_CUBIC = {(0, 2, 1): 1, (3, 0, 0): -1, (0, 0, 3): -1}


def build_type_4663(rng_seed: int = 0, retries: int = 32) -> TypedPair:
    """A certified pair (quartic, sextic) with all local numbers 6 and torsion 3.

    Steps: pick non-collinear rational points P1, P2, P3 on the cubic
    y^2 z = x^3 + z^3 with inflection origin; cut the conic through them
    tangent at the origin to read off P4; produce the quartic cutting
    3(P1+..+P4) as a principality witness; smooth it with a linear multiple
    of the cubic; then build the sextic from the squared cubic plus a conic
    multiple of the quartic.  The final type is re-verified from scratch,
    and orders 1 and 2 are also excluded through the geometric obstructions
    (non-collinearity, forced tangencies making a conic impossible).
    """
    E = PlaneCurve(HomogeneousPoly.from_terms(QUARTIC_SEXTIC_CUBIC), "E3")
    f3 = E.equation
    chart = EllipticChart(E, (0, 1, 0))
    ctx = PicardContext(E, rng_seed=rng_seed)
    rng = random.Random(rng_seed)
    pool = [
        ((2, 3, 1), (0, 1, 1), (0, -1, 1)),
        ((2, 3, 1), (2, -3, 1), (0, 1, 1)),
        ((2, 3, 1), (-1, 0, 1), (0, -1, 1)),
        ((2, -3, 1), (-1, 0, 1), (0, 1, 1)),
    ]
    rng.shuffle(pool)
    step = ConstructionStep("type_4663", {}, rng_seed)
    last = ""
    for triple in pool:
        pts = [normalize_point(t) for t in triple]
        if any(chart.cubic.equation.eval(p) != 0 for p in pts):
            raise ConstructionError("pool point not on the model cubic")
        if _rational_collinear(pts):
            last = "collinear triple"
            continue
        conic = _conic_through_tangent_origin(chart, pts)
        div = intersect(E, PlaneCurve(conic, "C2", check_reduced=False), rng_seed=rng_seed)
        known = [(cluster_from_point(chart.origin, curve=E), 2)]
        known += [(cluster_from_point(p, curve=E), 1) for p in pts]
        try:
            residual = div.subtract(known)
        except GeometryError:
            last = "conic section shape unexpected"
            continue
        if len(residual) != 1 or residual[0][0].size != 1 or residual[0][1] != 1:
            last = "fourth point not rational and simple"
            continue
        p4 = normalize_point(residual[0][0].center())
        if p4 in pts or p4 == chart.origin:
            last = "fourth point collides"
            continue
        all_pts = pts + [p4]
        clusters = [cluster_from_point(p, curve=E) for p in all_pts]
        res = is_principal(DivisorClass(ctx, [(cl, 3) for cl in clusters], 4))
        if not res.principal:
            raise CertificationError("3(P1+P2+P3+P4) must be cut by a quartic")
        f4p = res.witness
        c4 = None
        for _ in range(retries):
            g1 = rand_form(1, rng)
            cand_eq = f4p + f3 * g1
            try:
                cand = PlaneCurve(cand_eq, "C4")
            except GeometryError:
                continue
            if check_smooth(cand, rng_seed=rng_seed).is_smooth:
                c4 = cand
                break
        if c4 is None:
            last = "no smoothing linear form found"
            continue
        for p in all_pts:
            cl = cluster_from_point(p, curve=E)
            if order_along(E, cl, c4.equation, cap=5) != 3:
                raise CertificationError("quartic does not meet the cubic triply at a base point")
        b = None
        for _ in range(retries):
            g = rand_form(2, rng)
            if any(g.eval(p) == 0 for p in all_pts):
                continue
            cand_eq = f3**2 + c4.equation * g
            try:
                cand = PlaneCurve(cand_eq, "B6")
            except GeometryError:
                continue
            if check_smooth(cand, rng_seed=rng_seed).is_smooth:
                b = cand
                break
        if b is None:
            last = "no general conic for the sextic found"
            continue
        pair = _verified_pair(c4, b, rng_seed, [step])
        if pair.n != 6 or pair.nu != 3:
            raise CertificationError(
                f"pipeline prediction (6,3) contradicted by recomputation ({pair.n},{pair.nu})"
            )
        _verify_4663_obstructions(pair, all_pts, f3)
        pair.provenance.append(
            ConstructionStep(
                "obstructions",
                {"noncollinear": True, "tangency_degree_count": "4*2 > 2*3"},
                rng_seed,
            )
        )
        return pair
    raise ConstructionError(f"no valid base triple in the pool ({last})")


def _verify_4663_obstructions(pair: TypedPair, pts, f3):
    """Orders 1 and 2 excluded geometrically, independent of the torsion search.

    Order 1 would need the four base points collinear; the first three are
    not.  Order 2 would need a conic meeting the quartic twice at each base
    point; every such conic would share the cubic's tangent there, meeting
    it with total multiplicity at least 8 > 2*3 = its degree bound.
    """
    if _rational_collinear(pts[:3]):
        raise CertificationError("base points are collinear; order 1 not excluded")
    for p in pts:
        cl = cluster_from_point(p, curve=pair.d)
        v = order_along(pair.d, cl, f3, cap=4)
        if v is None or v < 2:
            raise CertificationError("cubic is not tangent to the quartic at a base point")
    if 2 * len(pts) <= 2 * 3:
        raise CertificationError("tangency degree count does not exclude order 2")


def _rational_collinear(pts):
    return det3([normalize_point(p) for p in pts]) == 0


def _conic_through_tangent_origin(chart: EllipticChart, pts):
    """The conic through three points, tangent to the cubic at the origin."""
    from .linalg import kernel_basis

    monos = monomials(2)
    rows = []
    o = chart.origin
    w = chart._tangent_partner(o)
    for p in list(pts) + [o]:
        rows.append([_mono_eval(e, p) for e in monos])
    drow = []
    for e in monos:
        s = Fraction(0)
        for i in range(3):
            if e[i]:
                v = Fraction(e[i])
                for j in range(3):
                    power = e[j] - (1 if j == i else 0)
                    v *= Fraction(o[j]) ** power
                s += v * Fraction(w[i])
        drow.append(s)
    rows.append(drow)
    sol = kernel_basis(rows, len(monos), QQ)
    if not sol:
        raise ConstructionError("no conic through the three points tangent at the origin")
    return HomogeneousPoly(QQ, 2, {e: c for e, c in zip(monos, sol[0])})


def _mono_eval(e, p):
    v = Fraction(1)
    for i in range(3):
        v *= Fraction(p[i]) ** e[i]
    return v
