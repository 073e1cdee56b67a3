import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from curvetorsion.cli import main
from curvetorsion.combinatorics import (
    CombinatoricsError,
    PointRecord,
    admissible,
    certify,
    comb_type,
    equiv_maps,
)
from curvetorsion.covers import CoverError, Decomposition, Part
from curvetorsion.curvefile import load_curve_file
from curvetorsion.curves import (
    CommonComponentError,
    NonRationalPointError,
    PlaneCurve,
    _restrict_to_line,
    normalize_point,
)
from curvetorsion.fields import QQ, NumberField
from curvetorsion.homopoly import HomogeneousPoly
from curvetorsion.linalg import cross3, kernel_basis
from curvetorsion.parsing import parse_poly
from curvetorsion.unipoly import squarefree_decomposition

SAMPLES = Path(__file__).resolve().parent.parent / "sample_curves"
QI = NumberField([1, 0, 1], symbol="i")
ARTAL_FIELD = load_curve_file(SAMPLES / "fermat_artal_pair.json").field


def form(terms):
    return HomogeneousPoly.from_terms(terms)


def line(a, b, c, name=""):
    return PlaneCurve(form({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}), name)


def curve(text, field=QI):
    return PlaneCurve(parse_poly(text, field), text)


# An independent route to the points over a number field, kept as the oracle
# for `comb_type`: lines meet by a cross product, and a line meets the one
# component of higher degree by restriction and a squarefree decomposition.


def oracle_points_over_nf(comps):
    fields = {c.field for c in comps if c.field != QQ}
    if len(fields) != 1:
        raise CombinatoricsError("components must share a single number field")
    K = fields.pop()
    work = [c.equation.to_field(K) for c in comps]
    if sum(c.degree > 1 for c in comps) > 1:
        raise CombinatoricsError("at most one component of degree > 1")
    registry = []  # [normalized point, incident set, {(i,j): m}]

    def record(pt, i, j, mult):
        for entry in registry:
            if entry[0] == pt:
                entry[1].update((i, j))
                entry[2][(i, j)] = mult
                return
        registry.append([pt, {i, j}, {(i, j): mult}])

    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            a, b = work[i], work[j]
            if a.degree == 1 and b.degree == 1:
                pt = cross3(oracle_line_coeffs(a, K), oracle_line_coeffs(b, K))
                if all(c == 0 for c in pt):
                    raise CombinatoricsError("two line components coincide")
                record(normalize_point(pt, K), i, j, 1)
            else:
                line_, other = (a, b) if a.degree == 1 else (b, a)
                for pt, mult in oracle_line_section_nf(line_, other, K):
                    record(pt, i, j, mult)
    return [PointRecord(frozenset(inc), tuple(sorted(pm.items()))) for _, inc, pm in registry]


def oracle_line_coeffs(line_, K):
    return tuple(K.coerce(line_.coeff(e)) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def oracle_line_section_nf(line_, other, K):
    """Intersection points of a line with a curve, all rational over K."""
    a, b = kernel_basis([list(oracle_line_coeffs(line_, K))], 3, K)
    candidates = [a, b, tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))]
    A = next(cand for cand in candidates if not K.is_zero(other.eval(cand)))
    B = b if A != b else a
    t = _restrict_to_line(other, A, B)
    assert t.degree == other.degree
    out = []
    for w, mult in squarefree_decomposition(t):
        if w.degree != 1:
            raise CombinatoricsError("intersection point is not rational over the declared field")
        u0 = -(w.coeffs[0] / w.coeffs[1])
        out.append((normalize_point(tuple(u0 * x + y for x, y in zip(A, B)), K), mult))
    assert sum(m for _, m in out) == other.degree
    return out


def bezout_totals(point_multiset):
    totals = Counter()
    for _, pair_mult in point_multiset:
        for pair, m in pair_mult:
            totals[pair] += m
    return totals


def assert_matches_oracle(comps):
    got = comb_type(comps).point_multiset()
    want = tuple(sorted(rec.key() for rec in oracle_points_over_nf(comps)))
    assert got == want  # so the per-pair Bezout totals agree too; both are d_i d_j
    totals = bezout_totals(got)
    assert all(
        totals[(i, j)] == comps[i].degree * comps[j].degree
        for i in range(len(comps))
        for j in range(i + 1, len(comps))
    )


@pytest.mark.parametrize("name", ["collinear", "noncollinear"])
def test_nf_points_match_the_oracle_on_the_sample_file(name):
    cf = load_curve_file(SAMPLES / "fermat_artal_pair.json")
    spec = cf.decomposition_spec(name)
    comps = [cf.curve(spec.smooth)] + [cf.curve(c) for part in spec.parts for c in part]
    assert {c.field for c in comps} == {cf.field}
    assert_matches_oracle(comps)


def test_nf_points_match_the_oracle_on_mixed_fields(artal_pair):
    # the collinear triangle is over Q; the other has a conjugate pair over K
    comps = artal_pair[1].arrangement_components()
    assert len({c.field for c in comps}) == 2
    assert_matches_oracle(comps)


def test_mixed_field_concurrent_triple_is_one_point():
    comps = [curve("x", QQ), curve("y", QQ), curve("x + i*y")]
    assert_matches_oracle(comps)
    assert comb_type(comps).point_multiset() == (
        ((0, 1, 2), (((0, 1), 1), ((0, 2), 1), ((1, 2), 1))),
    )


@st.composite
def nf_line_arrangements(draw):
    """3-5 lines over a quadratic K = Q(g) (some over Q) with coefficients
    a + b g for small integers a, b; a line may be a combination of two
    earlier ones with a coefficient in Q or g Q, so concurrent triples and
    quadruples occur, also K-lines through the meeting point of two Q-lines."""
    field = draw(st.sampled_from([QI, ARTAL_FIELD]))
    m0, m1, _ = field.min_poly

    def times_g(c):  # g (a + b g) = a g + b (-m0 - m1 g)
        return (-m0 * c[1], c[0] - m1 * c[1])

    small = st.integers(-3, 3)
    vectors = []  # per line: three (a, b) pairs
    for k in range(draw(st.integers(3, 5))):
        if k >= 2 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            al, be = draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([-1, 1, 3]))
            twist = times_g if draw(st.booleans()) else (lambda c: c)
            vec = [
                (al * u[0] + be * w[0], al * u[1] + be * w[1])
                for u, w in zip(vectors[i], map(twist, vectors[j]))
            ]
        else:
            over_q = draw(st.booleans())
            vec = [(draw(small), 0 if over_q else draw(small)) for _ in range(3)]
        assume(any(c != (0, 0) for c in vec))
        vectors.append(vec)
    assume(any(b for vec in vectors for _, b in vec))
    lines = []
    for vec in vectors:
        if any(b for _, b in vec):
            coeffs = [field.from_poly_coeffs([a, b]) for a, b in vec]
            lines.append(PlaneCurve(HomogeneousPoly.linear_form(coeffs, field)))
        else:
            lines.append(PlaneCurve(HomogeneousPoly.linear_form([a for a, _ in vec])))
    return lines


@settings(max_examples=40, deadline=None)
@given(nf_line_arrangements())
def test_nf_line_arrangements_match_the_oracle(lines):
    try:
        oracle_points_over_nf(lines)
    except CombinatoricsError as e:
        assert "coincide" in str(e)
        with pytest.raises(CommonComponentError):
            comb_type(lines)
        return
    assert_matches_oracle(lines)


def test_two_conics_and_a_line_over_a_number_field():
    comps = [curve("x^2 + i*y^2 - (1+i)*z^2"), curve("x^2 - i*y^2 - (1-i)*z^2"), curve("x - y")]
    t = comb_type(comps)
    assert len(t.points) == 4
    assert [p.key()[0] for p in t.points].count((0, 1, 2)) == 2
    assert bezout_totals(t.point_multiset()) == {(0, 1): 4, (0, 2): 2, (1, 2): 2}


def test_nonrational_point_over_a_number_field():
    with pytest.raises(NonRationalPointError):
        comb_type([curve("x^2 + y^2 - 3*z^2"), curve("y - z")])


def test_nonrational_point_through_certify_exits_3(tmp_path, capsys):
    # D meets both parts in Q(i)-points, so the decompositions build and the
    # nonrational pair C, L is first intersected inside comb_type
    doc = {
        "field": {"generator": "i", "min_poly": "i^2 + 1"},
        "curves": [
            {"name": "D", "poly": "x - 2*z"},
            {"name": "C", "poly": "x^2 + y^2 - 3*z^2"},
            {"name": "L", "poly": "y - z"},
        ],
        "decompositions": [
            {"name": name, "smooth": "D", "parts": [["C"], ["L"]]} for name in ("a", "b")
        ],
    }
    path = tmp_path / "nonrational.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path), "a", "b"]) == 3
    err = capsys.readouterr().err
    assert "nonrational point" in err and "Traceback" not in err


def test_two_number_fields_are_rejected():
    sqrt2 = NumberField([-2, 0, 1], symbol="s")
    with pytest.raises(CombinatoricsError, match="single number field"):
        comb_type([curve("x", QQ), curve("x + i*y"), curve("y + s*z", sqrt2)])


def test_coincident_lines_over_a_number_field():
    with pytest.raises(CommonComponentError):
        comb_type([curve("x + i*y"), curve("i*x - y"), curve("z")])


def test_comb_type_artal(fermat, artal_pair):
    dec1, dec2 = artal_pair
    t1 = comb_type(dec1.arrangement_components())
    t2 = comb_type(dec2.arrangement_components())
    # 3 tangency points of type (cubic, line; 3) and 3 line-line nodes
    keys1 = [p.key() for p in t1.points]
    assert len(keys1) == 6
    tangency = [k for k in keys1 if any(m == 3 for _, m in k[1])]
    nodes = [k for k in keys1 if all(m == 1 for _, m in k[1])]
    assert len(tangency) == 3 and len(nodes) == 3
    assert t1.point_multiset() == t2.point_multiset()


def test_comb_type_two_conics():
    c1 = PlaneCurve(form({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -5}), "C1")
    c2 = PlaneCurve(form({(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -4}), "C2")
    t = comb_type([c1, c2])
    assert len(t.points) == 4
    assert all(p.pair_mult == (((0, 1), 1),) for p in t.points)


def test_comb_type_typed_pair(chain_4661):
    _, pair = chain_4661
    t = comb_type([pair.d, pair.c])
    assert len(t.points) == 4
    assert all(p.pair_mult == (((0, 1), 6),) for p in t.points)


def test_singular_component_rejected():
    nodal = PlaneCurve(form({(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}))
    with pytest.raises(CombinatoricsError):
        comb_type([nodal, line(1, 1, 1)])


def test_equiv_maps_contains_identity(fermat, artal_pair):
    dec1, _ = artal_pair
    t1 = comb_type(dec1.arrangement_components())
    maps = equiv_maps(t1, t1)
    assert any(m.component_map == tuple(range(len(t1.components))) for m in maps)
    # closure under composition at the component level
    comp_maps = {m.component_map for m in maps}
    for m1 in comp_maps:
        for m2 in comp_maps:
            composed = tuple(m2[i] for i in m1)
            assert composed in comp_maps


def test_equiv_maps_empty_on_degree_mismatch():
    c1 = PlaneCurve(form({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -5}), "C1")
    c2 = PlaneCurve(form({(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): -4}), "C2")
    t_conics = comb_type([c1, c2])
    t_lines = comb_type([line(1, 0, 0), line(0, 1, 0)])
    assert equiv_maps(t_conics, t_lines) == []


def test_identity_not_admissible_for_crossed_pairing(tangent_pair):
    # all four tangent lines through one base point, pairings (12)(34) vs (13)(24)
    from fractions import Fraction

    from curvetorsion.construct import tangent_lines_through
    from curvetorsion.elliptic import EllipticChart

    deq, _ = tangent_pair
    e = deq.d
    chart = EllipticChart(e, (0, 1, 0))
    p1 = chart.neg(chart.mul(2, (Fraction(-3), Fraction(9), Fraction(1))))
    tls = tangent_lines_through(e, p1)
    lines = [PlaneCurve(t.line.normalized(), f"l{i}") for i, t in enumerate(tls)]
    dec_a = Decomposition(e, [Part((lines[0], lines[1])), Part((lines[2], lines[3]))])
    dec_b = Decomposition(e, [Part((lines[0], lines[2])), Part((lines[1], lines[3]))])
    t_a = comb_type(dec_a.arrangement_components())
    t_b = comb_type(dec_b.arrangement_components())
    maps = equiv_maps(t_a, t_b)
    # the geometric identity in dec_b's component numbering: l0,l2,l1,l3
    identity_as_map = (0, 1, 3, 2, 4)
    assert identity_as_map in {m.component_map for m in maps}
    adm = admissible(dec_a, dec_b, maps)
    assert not adm.all_maps_admissible
    id_only = admissible(dec_a, dec_b, [m for m in maps if m.component_map == identity_as_map])
    assert id_only.admissible_maps == 0
    # but some other equivalence map is admissible, so the set is nonempty
    assert adm.permutations


def test_every_map_admissible_for_two_base_points(tangent_pair):
    deq, ddf = tangent_pair
    t1 = comb_type(deq.arrangement_components())
    t2 = comb_type(ddf.arrangement_components())
    maps = equiv_maps(t1, t2)
    adm = admissible(deq, ddf, maps)
    assert maps and adm.all_maps_admissible


def test_k1_distinct_degrees_all_admissible(chain_4661, chain_4662):
    _, p1 = chain_4661
    _, _, p2 = chain_4662
    d1 = Decomposition(p1.d, [Part((p1.c,))], name="t1")
    d2 = Decomposition(p2.d, [Part((p2.c,))], name="t2")
    t1 = comb_type(d1.arrangement_components())
    t2 = comb_type(d2.arrangement_components())
    maps = equiv_maps(t1, t2)
    adm = admissible(d1, d2, maps)
    assert maps and adm.all_maps_admissible and adm.permutations == ((0,),)


def test_certify_artal(artal_pair):
    dec1, dec2 = artal_pair
    rep = certify(dec1, dec2)
    assert rep.verdict == "ZariskiPair"
    assert rep.rule == "Cor (i)"
    assert rep.orders == ((1,), (3,))


def test_certify_symmetry(artal_pair):
    dec1, dec2 = artal_pair
    assert certify(dec1, dec2).verdict == certify(dec2, dec1).verdict


def test_certify_identical_is_inconclusive(artal_pair):
    dec1, _ = artal_pair
    rep = certify(dec1, dec1)
    assert rep.verdict == "Inconclusive"
    assert "kernels agree" in rep.reason


def test_certify_tangent_pair_via_groups(tangent_pair):
    deq, ddf = tangent_pair
    rep = certify(deq, ddf)
    assert rep.verdict == "ZariskiPair"
    assert rep.rule == "Cor (iii)"
    assert rep.invariant_factors == ((1, 2), (2, 2))


def test_certify_requires_equal_n(fermat, artal_pair):
    dec1, _ = artal_pair
    lined = Decomposition(fermat, [Part((line(1, 2, 5, "l"),))], name="transversal")
    with pytest.raises(CoverError):
        certify(dec1, lined)


def test_certify_different_combinatorics_inconclusive(fermat, artal_pair):
    dec1, dec2 = artal_pair
    # tangents at the three collinear inflections on z = 0 are concurrent at
    # (0 : 0 : 1): same degrees and n, but a triple point replaces the nodes
    conjugate_lines = dec2.parts[0].components[1:]
    concurrent = Decomposition(
        fermat,
        [Part((line(1, 1, 0, "T"),) + tuple(conjugate_lines), "concurrent")],
        name="concurrent",
    )
    assert concurrent.n == dec1.n
    rep = certify(dec1, concurrent)
    assert rep.verdict == "Inconclusive"
    assert rep.reason == "different combinatorics"
