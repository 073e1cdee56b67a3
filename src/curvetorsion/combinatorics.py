"""Combinatorial types of arrangements of smooth curves and pair certification.

The encoding is the restricted one adequate for arrangements whose only
singularities are meetings of smooth branches: per singular point we record
which components pass through and every pairwise local intersection
multiplicity.  Conjugate points of one Galois orbit become that many
identical combinatorial points.  The points come from pairwise `intersect`
over one field for every arrangement: over Q any orbits are allowed; over a
number field K any number of components of any degree are allowed, but every
intersection point must be K-rational.

Certification composes the whole pipeline: equal combinatorics, admissibility
of every equivalence map, then the torsion criteria in increasing strength
(per-part orders, order tuples under admissible permutations, group
invariants, full kernel lattices).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations

from .covers import CoverError, Decomposition, permuted_lattice_hnf, relation_lattice
from .curves import GeometryError, PlaneCurve, check_smooth, intersect, same_points
from .fields import QQ


class CombinatoricsError(GeometryError):
    pass


@dataclass(frozen=True)
class PointRecord:
    """One combinatorial singular point of the union."""

    incident: frozenset
    pair_mult: tuple  # sorted ((i, j), m) with i < j
    orbit_size: int = 1

    def key(self):
        return (tuple(sorted(self.incident)), self.pair_mult)

    def translated(self, comp_map):
        inc = frozenset(comp_map[i] for i in self.incident)
        pm = tuple(
            sorted((tuple(sorted((comp_map[i], comp_map[j]))), m) for (i, j), m in self.pair_mult)
        )
        return PointRecord(inc, pm, self.orbit_size)


@dataclass
class CombType:
    components: tuple  # (id, degree)
    points: tuple  # expanded PointRecords (one per geometric point)

    def degree_multiset(self):
        return tuple(sorted(d for _, d in self.components))

    def point_multiset(self):
        return tuple(sorted(p.key() for p in self.points))


@dataclass
class EquivMap:
    component_map: tuple  # component_map[i] = image component id
    point_map: tuple  # pairs (index in t1.points, index in t2.points)


@dataclass
class AdmissibleSet:
    all_maps_admissible: bool
    permutations: tuple  # admissible part permutations, as tuples
    total_maps: int
    admissible_maps: int


def comb_type(components, rng_seed: int = 0) -> CombType:
    """Combinatorial type of an arrangement of certified-smooth components.

    Components over Q move to the one number field K of the others, so a
    point met by several pairs merges into one record.  Over K any number of
    components of any degree are allowed, but every intersection point must
    be K-rational (else NonRationalPointError).
    """
    comps = list(components)
    if not comps:
        raise CombinatoricsError("empty arrangement")
    for c in comps:
        _require_smooth(c)
    fields = {c.field for c in comps} - {QQ}
    if len(fields) > 1:
        raise CombinatoricsError("components must share a single number field")
    field = fields.pop() if fields else QQ
    comps = [
        c if c.field == field else PlaneCurve(c.equation.to_field(field), c.name, check_reduced=False)
        for c in comps
    ]
    records = _points(comps, rng_seed)
    _check_bezout(comps, records)
    points = []
    for rec in records:
        for _ in range(rec.orbit_size):
            points.append(PointRecord(rec.incident, rec.pair_mult, rec.orbit_size))
    points.sort(key=lambda p: p.key())
    return CombType(
        components=tuple((i, c.degree) for i, c in enumerate(comps)),
        points=tuple(points),
    )


def _require_smooth(c: PlaneCurve):
    if not check_smooth(c).is_smooth:
        raise CombinatoricsError(
            f"component {c.name or c.equation.text()} is not certified smooth; "
            "arrangements with singular components are out of scope"
        )


def _points(comps, rng_seed):
    """Group pairwise intersection clusters into points of the union."""
    registry = []  # [cluster, orbit_size, incident set, {(i,j): m}]
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            div = intersect(comps[i], comps[j], rng_seed=rng_seed)
            for cluster, mult in div.clusters:
                for entry in registry:
                    if same_points(entry[0], cluster):
                        entry[2].update((i, j))
                        if (i, j) in entry[3]:
                            raise CombinatoricsError("duplicate pair data for one point")
                        entry[3][(i, j)] = mult
                        break
                else:
                    registry.append([cluster, cluster.size, {i, j}, {(i, j): mult}])
    out = []
    for cluster, size, incident, pm in registry:
        out.append(
            PointRecord(frozenset(incident), tuple(sorted(pm.items())), orbit_size=size)
        )
    return out


def _check_bezout(comps, records):
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            total = 0
            for rec in records:
                for (a, b), m in rec.pair_mult:
                    if (a, b) == (i, j):
                        total += m * rec.orbit_size
            if total != comps[i].degree * comps[j].degree:
                raise CombinatoricsError(
                    f"Bezout failure between components {i} and {j}: {total}"
                )


def equiv_maps(t1: CombType, t2: CombType):
    """All degree- and incidence-preserving identifications of two types.

    Component bijections are enumerated within degree classes; each is kept
    when the translated point records match as multisets, witnessed by one
    explicit point bijection.
    """
    if t1.degree_multiset() != t2.degree_multiset():
        return []
    by_degree_1 = {}
    by_degree_2 = {}
    for cid, deg in t1.components:
        by_degree_1.setdefault(deg, []).append(cid)
    for cid, deg in t2.components:
        by_degree_2.setdefault(deg, []).append(cid)
    degrees = sorted(by_degree_1)
    perm_blocks = []
    for deg in degrees:
        src = by_degree_1[deg]
        dst = by_degree_2[deg]
        perm_blocks.append((src, list(iter_permutations(dst))))
    maps = []

    def build(block_index, current):
        if block_index == len(perm_blocks):
            comp_map = dict(current)
            comp_tuple = tuple(comp_map[i] for i in range(len(t1.components)))
            point_map = _match_points(t1, t2, comp_tuple)
            if point_map is not None:
                maps.append(EquivMap(comp_tuple, point_map))
            return
        src, perms = perm_blocks[block_index]
        for perm in perms:
            build(block_index + 1, current + list(zip(src, perm)))

    build(0, [])
    return maps


def _match_points(t1, t2, comp_map):
    translated = [(p.translated(comp_map).key(), idx) for idx, p in enumerate(t1.points)]
    targets = [(p.key(), idx) for idx, p in enumerate(t2.points)]
    translated.sort()
    targets.sort()
    if [k for k, _ in translated] != [k for k, _ in targets]:
        return None
    return tuple((i1, i2) for (_, i1), (_, i2) in zip(translated, targets))


def admissible(dec1: Decomposition, dec2: Decomposition, maps):
    """Classify equivalence maps by whether they respect the decompositions."""
    blocks1 = dec1.component_blocks()
    blocks2 = dec2.component_blocks()
    rhos = set()
    admissible_count = 0
    for m in maps:
        if m.component_map[0] != 0:
            continue
        rho = []
        good = True
        for j, block in enumerate(blocks1):
            image = frozenset(m.component_map[i] for i in block)
            target = next((j2 for j2, b2 in enumerate(blocks2) if b2 == image), None)
            if target is None:
                good = False
                break
            rho.append(target)
        if good:
            admissible_count += 1
            rhos.add(tuple(rho))
    return AdmissibleSet(
        all_maps_admissible=(admissible_count == len(maps) and len(maps) > 0),
        permutations=tuple(sorted(rhos)),
        total_maps=len(maps),
        admissible_maps=admissible_count,
    )


VERDICT_ZARISKI = "ZariskiPair"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_SAME_NOT_EXCLUDED = "SameTopologyNotExcluded"


@dataclass
class CertificationReport:
    verdict: str
    rule: str | None
    reason: str
    n: int
    k: int
    orders: tuple | None = None
    invariant_factors: tuple | None = None
    kernels: tuple | None = None
    admissible_permutations: tuple = ()
    equivalence_maps: int = 0

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "rule": self.rule,
            "reason": self.reason,
            "n": self.n,
            "k": self.k,
            "orders": self.orders,
            "invariant_factors": self.invariant_factors,
            "kernels": self.kernels,
            "admissible_permutations": list(self.admissible_permutations),
            "equivalence_maps": self.equivalence_maps,
        }


def certify(dec1: Decomposition, dec2: Decomposition, max_sweep: int = 10**4, rng_seed: int = 0) -> CertificationReport:
    """Zariski pair certification for two decompositions with equal n.

    Applies, in order: combinatorial equality, admissibility of every
    equivalence map, the per-part order criterion (k = 1), the order tuple
    criterion, group invariants, and the full kernel comparison over all
    admissible permutations.  The criterion is sufficient only, so failure
    to distinguish yields an inconclusive verdict, never a same-topology
    claim.
    """
    if dec1.n != dec2.n:
        raise CoverError(f"cover orders differ: {dec1.n} vs {dec2.n}")
    if dec1.k != dec2.k:
        raise CoverError("decompositions have different numbers of parts")
    n, k = dec1.n, dec1.k
    t1 = comb_type(dec1.arrangement_components(), rng_seed=rng_seed)
    t2 = comb_type(dec2.arrangement_components(), rng_seed=rng_seed)
    maps = equiv_maps(t1, t2)
    if not maps:
        return CertificationReport(
            VERDICT_INCONCLUSIVE, None, "different combinatorics", n, k,
        )
    adm = admissible(dec1, dec2, maps)
    if not adm.all_maps_admissible:
        return CertificationReport(
            VERDICT_INCONCLUSIVE,
            None,
            "criterion hypothesis fails: a non-admissible equivalence map exists",
            n,
            k,
            admissible_permutations=adm.permutations,
            equivalence_maps=adm.total_maps,
        )
    orders1 = dec1.order_tuple()
    orders2 = dec2.order_tuple()
    evidence = dict(
        orders=(orders1, orders2),
        admissible_permutations=adm.permutations,
        equivalence_maps=adm.total_maps,
    )
    if k == 1 and orders1[0] != orders2[0]:
        return CertificationReport(
            VERDICT_ZARISKI, "Cor (i)", f"part orders differ: {orders1[0]} vs {orders2[0]}",
            n, k, **evidence,
        )
    if all(
        orders1 != tuple(orders2[rho[j]] for j in range(k)) for rho in adm.permutations
    ):
        return CertificationReport(
            VERDICT_ZARISKI, "Cor (ii)",
            "order tuples differ under every admissible permutation",
            n, k, **evidence,
        )
    lat1 = relation_lattice(dec1, max_sweep=max_sweep)
    lat2 = relation_lattice(dec2, max_sweep=max_sweep)
    evidence["invariant_factors"] = (lat1.invariant_factors, lat2.invariant_factors)
    if lat1.group_nontrivial_factors() != lat2.group_nontrivial_factors():
        return CertificationReport(
            VERDICT_ZARISKI, "Cor (iii)",
            f"groups are not isomorphic: {lat1.group_nontrivial_factors()} vs "
            f"{lat2.group_nontrivial_factors()}",
            n, k, **evidence,
        )
    evidence["kernels"] = (lat1.hnf, lat2.hnf)
    agreeing = [rho for rho in adm.permutations if lat1.hnf == permuted_lattice_hnf(lat2, rho)]
    if not agreeing:
        return CertificationReport(
            VERDICT_ZARISKI, "Thm n-torsion",
            "kernel lattices differ for every admissible permutation",
            n, k, **evidence,
        )
    return CertificationReport(
        VERDICT_INCONCLUSIVE, None,
        f"kernels agree under admissible permutation {agreeing[0]}; "
        "same topology is not excluded",
        n, k, **evidence,
    )
