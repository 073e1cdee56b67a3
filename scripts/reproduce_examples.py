#!/usr/bin/env python3
"""Reproduce the worked examples end to end and write the curve files.

Builds both inflection-tangent arrangements on the Fermat cubic, the two
four-tangent-line arrangements with class groups Z/2 and Z/2 x Z/2, the
power construction chains ending in types (4,6;6,1) and (4,6;6,2), the
(4,6;6,3) pipeline, and certifies every relevant pair.  All outputs are
deterministic in the seeds below; curve files land in --out.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from curvetorsion import (
    GeometryCache,
    HomogeneousPoly,
    Part,
    PlaneCurve,
    artal_arrangement,
    build_type_4663,
    certify,
    power_of_k,
    relation_lattice,
    splitting_table,
    tangent_quadruple_arrangements,
    transversal_seed,
)
from curvetorsion.covers import Decomposition
from curvetorsion.curvefile import curve_file_for_decompositions, curve_file_for_pair
from curvetorsion.fields import QQ


def fermat():
    return PlaneCurve(
        HomogeneousPoly.from_terms({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}), "E"
    )


def banner(text):
    print(f"\n== {text}")


def show_certificate(tag, report):
    print(f"{tag}: {report.verdict}" + (f" via {report.rule}" if report.rule else ""))
    print(f"   {report.reason}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sample_curves", help="directory for curve files")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.time()
    summary = {}

    banner("inflection tangent triangles on the Fermat cubic")
    e = fermat()
    dec_col = artal_arrangement(e, collinear=True, rng_seed=args.seed)
    dec_non = artal_arrangement(e, collinear=False, rng_seed=args.seed)
    print(f"collinear triple:     n = {dec_col.n}, part order {dec_col.order_tuple()[0]}")
    print(f"non-collinear triple: n = {dec_non.n}, part order {dec_non.order_tuple()[0]}")
    for name, dec in (("collinear", dec_col), ("noncollinear", dec_non)):
        table = splitting_table(dec)
        for a, (nu, s) in sorted(table.entries.items()):
            print(f"   {name} a={a}: order {nu}, splitting number {s}")
    rep = certify(dec_col, dec_non)
    show_certificate("certify(collinear, noncollinear)", rep)
    summary["artal"] = rep.as_dict()
    field = next((c.field for p in dec_non.parts for c in p.components if c.field != QQ), None)
    (out / "fermat_artal_pair.json").write_text(
        curve_file_for_decompositions([dec_col, dec_non], field=field).dumps()
    )

    banner("a smooth cubic with four tangent lines, paired two ways")
    dec_eq, dec_df = tangent_quadruple_arrangements(rng_seed=args.seed)
    for name, dec in (("equal-classes", dec_eq), ("distinct-classes", dec_df)):
        lat = relation_lattice(dec)
        print(f"{name}: invariant factors {lat.invariant_factors}")
    rep = certify(dec_eq, dec_df)
    show_certificate("certify(equal, distinct)", rep)
    summary["tangents"] = rep.as_dict()
    (out / "tangent_quadruples.json").write_text(
        curve_file_for_decompositions([dec_eq, dec_df]).dumps()
    )

    banner("power construction chains")
    seed14 = transversal_seed(1, 4, rng_seed=11)
    pair_4661 = power_of_k(seed14, 6, rng_seed=7)
    print(f"(1,4;1,1) --6--> type {pair_4661.type_tuple}")
    seed22 = transversal_seed(2, 2, rng_seed=3)
    mid = power_of_k(seed22, 2, rng_seed=5)
    pair_4662 = power_of_k(mid, 3, rng_seed=9)
    print(f"(2,2;1,1) --2--> {mid.type_tuple} --3--> {pair_4662.type_tuple}")
    (out / "seed_1_4.json").write_text(curve_file_for_pair(seed14, "seed-1-4").dumps())
    (out / "type_4661.json").write_text(curve_file_for_pair(pair_4661, "type-4661").dumps())
    (out / "type_4662.json").write_text(curve_file_for_pair(pair_4662, "type-4662").dumps())

    banner("the (4,6;6,3) pipeline")
    pair_4663 = build_type_4663(rng_seed=1)
    print(f"built type {pair_4663.type_tuple}")
    (out / "type_4663.json").write_text(curve_file_for_pair(pair_4663, "type-4663").dumps())

    banner("pairwise certification of the quartic-sextic types")
    pairs = [("type-4661", pair_4661), ("type-4662", pair_4662), ("type-4663", pair_4663)]
    decs = [(name, Decomposition(p.d, [Part((p.c,))], name=name)) for name, p in pairs]
    tuple_results = []
    for i in range(len(decs)):
        for j in range(i + 1, len(decs)):
            rep = certify(decs[i][1], decs[j][1])
            show_certificate(f"certify({decs[i][0]}, {decs[j][0]})", rep)
            tuple_results.append({"pair": [decs[i][0], decs[j][0]], **rep.as_dict()})
    summary["tuple"] = tuple_results
    (out / "quartic_sextic_tuple.json").write_text(
        curve_file_for_decompositions([d for _, d in decs]).dumps()
    )

    (out / "summary.json").write_text(json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n")
    print(f"\nall reproductions done in {time.time() - t_start:.1f}s; files in {out}/")
    return 0


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


if __name__ == "__main__":
    with GeometryCache():
        sys.exit(main())
