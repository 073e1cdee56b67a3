"""Divisor classes on a smooth plane curve and exact torsion order tests.

A class is stored as (effective divisor, rational multiple q of the line
section), representing effective - q * o where o is the divisor cut by a
line.  Deciding whether such a class with integer q is trivial in Pic^0
reduces to a finite linear system: a form h of degree q cuts the effective
divisor exactly when its local valuations meet the prescribed multiplicities,
and the only degenerate solutions are multiples of the curve equation.
Every positive answer is re-verified through an independent valuation
computation before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .curves import (
    CertificationError,
    PlaneCurve,
    ProjPointCluster,
    check_smooth,
    local_param,
    order_along,
    same_points,
)
from .homopoly import HomogeneousPoly, monomials
from .linalg import kernel_basis, row_echelon, row_residual
from .series import TruncSeries


class PicardError(ValueError):
    pass


class PicardContext:
    """A certified-smooth curve D with the line-section reference class."""

    def __init__(self, d: PlaneCurve, trials: int = 8, rng_seed: int = 0):
        verdict = check_smooth(d, trials=trials, rng_seed=rng_seed)
        if not verdict.is_smooth:
            raise PicardError(
                f"curve {d.name or d.equation.text()} is not certified smooth ({verdict.kind})"
            )
        self.d = d
        self.d0 = d.degree

    def __repr__(self):
        return f"PicardContext({self.d!r})"


class DivisorClass:
    """effective - o_multiple * (line section), a divisor class on D."""

    def __init__(self, context: PicardContext, effective, o_multiple, check_membership=True):
        merged = []
        for cluster, coeff in effective:
            coeff = int(coeff)
            if coeff < 0:
                raise PicardError("effective part must have nonnegative coefficients")
            if coeff == 0:
                continue
            for entry in merged:
                if same_points(entry[0], cluster):
                    entry[1] += coeff
                    break
            else:
                if check_membership and not cluster.lies_on(context.d):
                    raise PicardError("cluster does not lie on the curve")
                merged.append([cluster, coeff])
        self._init(context, merged, o_multiple)

    @classmethod
    def _trusted(cls, context, effective, o_multiple):
        """A class whose clusters are already distinct orbits on the curve,
        so nothing is merged: zero coefficients are dropped and the degree
        is checked."""
        c = cls.__new__(cls)
        c._init(context, [(cl, m) for cl, m in effective if m], o_multiple)
        return c

    def _init(self, context, effective, o_multiple):
        self.context = context
        self.effective = tuple((cl, m) for cl, m in effective)
        self.o_multiple = Fraction(o_multiple)
        if self.effective_degree() != self.o_multiple * context.d0:
            raise PicardError(
                f"degree mismatch: effective degree {self.effective_degree()} "
                f"!= {self.o_multiple} * {context.d0}"
            )

    @classmethod
    def from_divisor(cls, context: PicardContext, divisor, n: int) -> "DivisorClass":
        """The part class divisor / n - (deg C / n) * o of an intersection
        divisor C|_D on the context's curve D.

        Each cluster gets its multiplicity // n; raises PicardError when n
        does not divide a multiplicity.  deg C / n may be fractional; such a
        class is testable only at multiples that clear the denominator.
        """
        effective = []
        for cluster, mult in divisor.clusters:
            if mult % n != 0:
                raise PicardError(
                    f"n={n} does not divide local intersection data (found multiplicity {mult})"
                )
            effective.append((cluster, mult // n))
        return cls._trusted(context, effective, Fraction(divisor.other.degree, n))

    def effective_degree(self):
        return sum(cl.size * m for cl, m in self.effective)

    def scale(self, k: int) -> "DivisorClass":
        if k < 0:
            raise PicardError("only nonnegative scaling is supported")
        return DivisorClass._trusted(
            self.context, [(cl, m * k) for cl, m in self.effective], self.o_multiple * k
        )

    def add(self, other: "DivisorClass") -> "DivisorClass":
        if other.context.d is not self.context.d and not other.context.d.same_curve(self.context.d):
            raise PicardError("classes live on different curves")
        return DivisorClass(
            self.context,
            list(self.effective) + list(other.effective),
            self.o_multiple + other.o_multiple,
            check_membership=False,
        )

    def __repr__(self):
        eff = " + ".join(f"{m}*(size {cl.size})" for cl, m in self.effective) or "0"
        return f"DivisorClass({eff} - {self.o_multiple}*o)"


@dataclass
class PrincipalityResult:
    principal: bool
    witness: HomogeneousPoly | None
    kernel_dim: int
    trivial_dim: int


@dataclass
class TorsionResult:
    order: int | None
    witness: HomogeneousPoly | None
    tested: list = dc_field(default_factory=list)


def _cluster_condition_rows(d: PlaneCurve, cluster: ProjPointCluster, need: int, monos):
    """Linear conditions (rows over the base field) forcing valuation >= need.

    One Galois orbit contributes need * (cluster field degree over the base)
    rows: the first coefficients of every monomial along the branch, expanded
    in the power basis of the cluster field.  The monomials are products of
    power tables of the branch series; the branch is lifted to s^(need-1),
    the last coefficient read.
    """
    param = local_param(d, cluster, order=need - 1)
    one = TruncSeries.constant(cluster.field, need - 1, 1)
    tables = []
    for s in param.original_series():
        powers = [one]
        for _ in range(sum(monos[0])):
            powers.append(powers[-1] * s)
        tables.append(powers)
    cols = [tables[0][a] * tables[1][b] * tables[2][c] for a, b, c in monos]
    rows = []
    for i in range(need):
        # as `cluster.base_coords`: power-basis coordinates of an orbit's values
        coords = [col.coords(i) if cluster.size > 1 else (col.coeff(i),) for col in cols]
        rows.extend(list(row) for row in zip(*coords))
    return rows


def _principality_system(ctx: PicardContext, effective, m: int):
    monos = monomials(m)
    rows = []
    for cluster, coeff in effective:
        rows.extend(_cluster_condition_rows(ctx.d, cluster, coeff, monos))
    return monos, rows


def _trivial_vectors(ctx: PicardContext, m: int, monos):
    """Coefficient vectors of f0 * g over all monomials g of degree m - d0."""
    if m < ctx.d0:
        return []
    f0 = ctx.d.equation
    field = ctx.d.field
    index = {e: i for i, e in enumerate(monos)}
    vecs = []
    for g_exp in monomials(m - ctx.d0):
        vec = [field.zero] * len(monos)
        for e, c in f0.terms.items():
            tot = (e[0] + g_exp[0], e[1] + g_exp[1], e[2] + g_exp[2])
            vec[index[tot]] = c
        vecs.append(vec)
    return vecs


def is_principal(cls: DivisorClass) -> PrincipalityResult:
    """Decide whether the class is trivial in Pic^0(D), with a witness form.

    The candidate space is all forms of degree m = o_multiple; the conditions
    ask for valuation at least the prescribed coefficient at every cluster.
    Multiples of D's own equation satisfy everything vacuously, so the class
    is principal exactly when the solution space exceeds that subspace.  Any
    witness is re-verified by exact valuations before being returned.
    """
    if self_multiple_not_integer(cls):
        raise PicardError(
            f"class not testable at this multiple: o_multiple {cls.o_multiple} is not an integer"
        )
    m = int(cls.o_multiple)
    if m < 0:
        return PrincipalityResult(False, None, 0, 0)
    ctx = cls.context
    field = ctx.d.field
    if m == 0:
        return PrincipalityResult(True, HomogeneousPoly(field, 0, {(0, 0, 0): field.one}), 1, 0)
    monos, rows = _principality_system(ctx, cls.effective, m)
    kernel = kernel_basis(rows, len(monos), field)
    trivial = _trivial_vectors(ctx, m, monos)
    tdim = len(trivial)
    if len(kernel) < tdim:
        raise CertificationError("solution space smaller than the forced subspace")
    if len(kernel) == tdim:
        return PrincipalityResult(False, None, len(kernel), tdim)
    echelon = row_echelon(trivial, field)
    witness_vec = next(
        (v for v in kernel if not all(field.is_zero(c) for c in row_residual(v, echelon, field))), None
    )
    if witness_vec is None:
        raise CertificationError("kernel exceeds forced subspace but no witness found")
    h = HomogeneousPoly(field, m, {e: c for e, c in zip(monos, witness_vec)})
    _verify_witness(ctx, cls, h)
    return PrincipalityResult(True, h, len(kernel), tdim)


def self_multiple_not_integer(cls: DivisorClass) -> bool:
    return cls.o_multiple.denominator != 1


def _verify_witness(ctx: PicardContext, cls: DivisorClass, h: HomogeneousPoly):
    if h.divisible_by(ctx.d.equation):
        raise CertificationError("witness is a multiple of the curve equation")
    for cluster, coeff in cls.effective:
        v = order_along(ctx.d, cluster, h, cap=coeff)
        if v != coeff:
            raise CertificationError(
                f"witness valuation {v} differs from required multiplicity {coeff}"
            )


def torsion_order(cls: DivisorClass, n: int) -> TorsionResult:
    """Least positive k with k * class principal, for a class killed by n.

    Only divisors of n are tried, which is correct whenever the class is
    known to be killed by n, as all decomposition classes are.
    """
    if n < 1:
        raise PicardError("period bound must be positive")
    candidates = [k for k in range(1, n + 1) if n % k == 0]
    tested = []
    for nu in candidates:
        scaled = cls.scale(nu)
        if self_multiple_not_integer(scaled):
            tested.append((nu, "not integral"))
            continue
        res = is_principal(scaled)
        tested.append((nu, res.principal))
        if res.principal:
            return TorsionResult(order=nu, witness=res.witness, tested=tested)
    return TorsionResult(order=None, witness=None, tested=tested)


def class_of_decomposition(ctx: PicardContext, part: PlaneCurve, n: int, rng_seed: int = 0):
    """The torsion class of one decomposition part: d_j - (deg/n) * o.

    Requires n to divide every local intersection multiplicity; see
    `DivisorClass.from_divisor`.
    """
    from .curves import intersect

    return DivisorClass.from_divisor(ctx, intersect(ctx.d, part, rng_seed=rng_seed), n)
