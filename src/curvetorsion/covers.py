"""Decompositions of a reducible curve and their cyclic-cover invariants.

A decomposition (D; C_1, ..., C_k) of D + sum C_j determines the integer n
(gcd of all local intersection numbers with D and all part degrees), one
torsion class per part, splitting numbers n/order for exponent vectors, and
the relation lattice of the classes inside Pic^0(D)[n] whose quotient is the
group generated by the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd as int_gcd

from .curves import PlaneCurve, intersect
from .fields import QQ
from .homopoly import HomogeneousPoly
from .linalg import hermite_normal_form, smith_normal_form
from .picard import DivisorClass, PicardContext, TorsionResult, is_principal, torsion_order


class CoverError(ValueError):
    pass


@dataclass
class Part:
    """One group of geometric components treated as a single C_j."""

    components: tuple
    name: str = ""

    @property
    def degree(self):
        return sum(c.degree for c in self.components)

    def equation_over_q(self) -> HomogeneousPoly:
        """Product of the component equations, coerced to rational coefficients.

        Conjugate component groups multiply out to Galois-stable products, so
        a rational equation always exists for supported inputs.
        """
        prod = None
        for c in self.components:
            prod = c.equation if prod is None else prod * c.equation
        if prod.field == QQ:
            return prod
        terms = {}
        for e, coeff in prod.terms.items():
            if not coeff.is_rational():
                raise CoverError(
                    f"part {self.name or self.components} is not Galois stable over Q"
                )
            terms[e] = coeff.as_rational()
        return HomogeneousPoly(QQ, prod.degree, terms)


def part_of(curve_or_curves, name=""):
    if isinstance(curve_or_curves, PlaneCurve):
        return Part((curve_or_curves,), name or curve_or_curves.name)
    return Part(tuple(curve_or_curves), name)


class Decomposition:
    """D plus ordered parts, with n, the part classes, and their divisors."""

    def __init__(self, d: PlaneCurve, parts, rng_seed: int = 0, name: str = "", smooth_trials: int = 8):
        parts = [p if isinstance(p, Part) else part_of(p) for p in parts]
        if not parts:
            raise CoverError("a decomposition needs at least one part")
        self.name = name
        self.d = d
        self.parts = tuple(parts)
        self.rng_seed = rng_seed
        self.ctx = PicardContext(d, trials=smooth_trials, rng_seed=rng_seed)
        self._check_no_shared_components()
        part_curves = []
        for i, p in enumerate(parts):
            eq = p.equation_over_q()
            part_curves.append(PlaneCurve(eq, p.name or f"C{i + 1}"))
        self.part_curves = tuple(part_curves)
        divisors = [intersect(d, pc, rng_seed=rng_seed) for pc in part_curves]
        values = [m for div in divisors for _, m in div.clusters]
        values += [p.degree for p in parts]
        n = 0
        for v in values:
            n = int_gcd(n, v)
        self.n = n
        self.divisors = tuple(divisors)
        self.classes = tuple(DivisorClass.from_divisor(self.ctx, div, n) for div in divisors)
        self._torsion = {}

    def _check_no_shared_components(self):
        comps = [c for p in self.parts for c in p.components]
        for i, a in enumerate(comps):
            if a.field == self.d.field and a.same_curve(self.d):
                raise CoverError("a part shares the smooth component D")
            for b in comps[i + 1 :]:
                if a.field == b.field and a.same_curve(b):
                    raise CoverError("two parts share a component")

    @property
    def k(self):
        return len(self.parts)

    @property
    def degrees(self):
        return tuple(p.degree for p in self.parts)

    def part_torsion(self, j: int) -> TorsionResult:
        """Torsion order and principality witness of the j-th part class (0-based)."""
        if j not in self._torsion:
            res = torsion_order(self.classes[j], self.n) if self.n > 0 else None
            if res is None or res.order is None:
                raise CoverError("part class has no order dividing n; invariant broken")
            self._torsion[j] = res
        return self._torsion[j]

    def part_order(self, j: int) -> int:
        """Torsion order of the j-th part class (0-based)."""
        return self.part_torsion(j).order

    def order_tuple(self):
        return tuple(self.part_order(j) for j in range(self.k))

    def class_of_vector(self, a):
        """The class sum_j a_j * t_j, with a_j reduced mod n."""
        a = [int(x) % self.n if self.n else int(x) for x in a]
        cls = None
        for j, aj in enumerate(a):
            if aj == 0:
                continue
            piece = self.classes[j].scale(aj)
            cls = piece if cls is None else cls.add(piece)
        if cls is None:
            cls = DivisorClass(self.ctx, [], 0)
        return cls

    def arrangement_components(self):
        """All geometric components: D first, then the parts in order."""
        return [self.d] + [c for p in self.parts for c in p.components]

    def component_blocks(self):
        """Component index sets per part, matching arrangement_components order."""
        blocks = []
        i = 1
        for p in self.parts:
            blocks.append(frozenset(range(i, i + len(p.components))))
            i += len(p.components)
        return blocks

    def __repr__(self):
        return f"Decomposition({self.name or self.d.name}; k={self.k}, n={self.n})"


@dataclass
class ThetaSet:
    """Exponent vectors indexing the relevant cyclic covers, up to unit scaling."""

    n: int
    degrees: tuple
    representatives: tuple

    def __contains__(self, a):
        return canonical_exponent(self.n, a) in set(self.representatives)


def exponent_vectors(n: int, degrees) -> ThetaSet:
    """All a in {0..n-1}^k with sum(a_j d_j) = 0 mod n and gcd(a, n) = 1,
    one representative per unit-scaling orbit."""
    if n < 2:
        raise CoverError("exponent enumeration needs n >= 2")
    degrees = tuple(int(d) for d in degrees)
    k = len(degrees)
    units = [l for l in range(1, n) if int_gcd(l, n) == 1]
    seen = set()
    reps = []
    for a in product(range(n), repeat=k):
        if sum(x * d for x, d in zip(a, degrees)) % n != 0:
            continue
        g = 0
        for x in a:
            g = int_gcd(g, x)
        if int_gcd(g, n) != 1:
            continue
        canon = min(tuple((l * x) % n for x in a) for l in units)
        if canon in seen:
            continue
        seen.add(canon)
        reps.append(canon)
    reps.sort()
    return ThetaSet(n, degrees, tuple(reps))


def canonical_exponent(n, a):
    units = [l for l in range(1, n) if int_gcd(l, n) == 1]
    return min(tuple((l * int(x)) % n for x in a) for l in units)


def splitting_number(dec: Decomposition, a):
    """(order, splitting number) for the cover indexed by a: s = n / order."""
    n = dec.n
    if n == 1:
        return 1, 1  # only the trivial cover exists
    a = tuple(int(x) for x in a)
    if sum(x * d for x, d in zip(a, dec.degrees)) % n != 0:
        raise CoverError(f"{a} does not index a cover: weighted degree not 0 mod n")
    g = 0
    for x in a:
        g = int_gcd(g, x)
    if int_gcd(g, n) != 1:
        raise CoverError(f"{a} does not index a connected cover: gcd with n is not 1")
    cls = dec.class_of_vector(a)
    res = torsion_order(cls, n)
    if res.order is None:
        raise CoverError("class has no order dividing n; invariant broken")
    return res.order, n // res.order


@dataclass
class SplittingReport:
    n: int
    degrees: tuple
    entries: dict  # a -> (order, splitting number)


def splitting_table(dec: Decomposition) -> SplittingReport:
    """Splitting numbers over all exponent classes (empty when n = 1)."""
    if dec.n < 2:
        return SplittingReport(dec.n, dec.degrees, {})
    theta = exponent_vectors(dec.n, dec.degrees)
    entries = {}
    for a in theta.representatives:
        entries[a] = splitting_number(dec, a)
    return SplittingReport(dec.n, dec.degrees, entries)


@dataclass
class RelationLattice:
    """Generators of the kernel of a -> sum a_j t_j, and the quotient group."""

    n: int
    k: int
    generators: tuple  # rows, including n * identity
    invariant_factors: tuple  # of the quotient Z^k / kernel
    hnf: tuple

    def group_nontrivial_factors(self):
        return tuple(f for f in self.invariant_factors if f not in (0, 1))


def relation_lattice(dec: Decomposition, max_sweep: int = 10**4) -> RelationLattice:
    """Exhaustive sweep of (Z/n)^k testing which combinations are principal.

    The kernel always contains n*Z^k; found relations plus that sublattice
    generate the full kernel.  The Smith form of the generator matrix gives
    the invariant factors of the quotient group.
    """
    n, k = dec.n, dec.k
    if n < 1:
        raise CoverError("empty decomposition")
    if n**k > max_sweep:
        raise CoverError(f"sweep size {n**k} exceeds the guard {max_sweep}")
    rows = [[n if i == j else 0 for j in range(k)] for i in range(k)]
    if n > 1:
        for a in product(range(n), repeat=k):
            if all(x == 0 for x in a):
                continue
            cls = dec.class_of_vector(a)
            if cls.o_multiple.denominator != 1:
                continue
            if is_principal(cls).principal:
                rows.append(list(a))
    return RelationLattice(
        n=n,
        k=k,
        generators=tuple(tuple(r) for r in rows),
        invariant_factors=tuple(smith_normal_form(rows)),
        hnf=hermite_normal_form(rows, k),
    )


def permuted_lattice_hnf(lattice: RelationLattice, rho):
    """HNF of the kernel of (a -> tau(rho(a))): columns permuted by rho.

    rho is a tuple with rho[j] = image of index j; the pulled-back kernel is
    rho^{-1} applied to kernel vectors, i.e. column j picks up column rho[j].
    """
    rows = [[row[rho[j]] for j in range(lattice.k)] for row in lattice.generators]
    return hermite_normal_form(rows, lattice.k)
