"""Command line front end.

Every subcommand reads a curve-arrangement file (or builds curves itself),
runs the exact pipeline, and emits either a human summary or, with --json,
a self-contained machine report carrying the input hash, all seeds, and the
results.  Exit codes: 0 success or certified pair, 2 inconclusive, 3 input
error, 4 internal certification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .combinatorics import certify
from .covers import CoverError, relation_lattice, splitting_table
from .curvefile import (
    CurveFileError,
    curve_file_for_decompositions,
    curve_file_for_pair,
    loads_curve_file,
)
from .curves import (
    CertificationError,
    GeometryCache,
    GeometryError,
    PlaneCurve,
    ShearExhaustedError,
    intersect,
)
from .construct import (
    ConstructionError,
    PreconditionError,
    artal_arrangement,
    build_type_4663,
    power_of_k,
    tangent_quadruple_arrangements,
    transversal_seed,
    verify_type,
)
from .fields import QQ
from .homopoly import HomogeneousPoly
from .parsing import ParseError
from .picard import PicardError

EXIT_OK = 0
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

FERMAT = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CurveFileError(message)


def build_parser():
    p = _ArgumentParser(prog="curvetorsion", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="seed for all random choices")
        sp.add_argument("--trials", type=int, default=8, help="smoothness certificate attempts")
        sp.add_argument("--json", action="store_true", help="emit a machine-readable report")

    sp = sub.add_parser("intersect", help="intersection divisor of two named curves")
    sp.add_argument("file")
    sp.add_argument("d")
    sp.add_argument("c")
    common(sp)

    sp = sub.add_parser("torsion", help="n and the torsion order of every part class")
    sp.add_argument("file")
    sp.add_argument("decomposition")
    common(sp)

    sp = sub.add_parser("splitting", help="splitting numbers over all exponent classes")
    sp.add_argument("file")
    sp.add_argument("decomposition")
    common(sp)

    sp = sub.add_parser("group", help="invariant factors of the class group of a decomposition")
    sp.add_argument("file")
    sp.add_argument("decomposition")
    sp.add_argument("--max-sweep", type=int, default=10**4, help="guard for the n^k sweep")
    common(sp)

    sp = sub.add_parser("certify", help="Zariski pair certification for two decompositions")
    sp.add_argument("file")
    sp.add_argument("dec1")
    sp.add_argument("dec2")
    sp.add_argument("--max-sweep", type=int, default=10**4)
    common(sp)

    sp = sub.add_parser("certify-all", help="certify every pair of decompositions in the file")
    sp.add_argument("file")
    sp.add_argument("--max-sweep", type=int, default=10**4)
    common(sp)

    sp = sub.add_parser("verify-type", help="verify constant local numbers and compute nu")
    sp.add_argument("file")
    sp.add_argument("d")
    sp.add_argument("c")
    common(sp)

    sp = sub.add_parser("construct", help="build curves with prescribed invariants")
    sp.add_argument(
        "--recipe",
        required=True,
        choices=["transversal", "power-k", "artal", "tangents", "type-4663"],
    )
    sp.add_argument("--degrees", type=int, nargs=2, metavar=("D0", "D1"))
    sp.add_argument("--from", dest="from_file", help="curve file with the input typed pair")
    sp.add_argument("--pair", help="name of the typed pair in the input file")
    sp.add_argument("--k", type=int, help="power for the power-k recipe")
    sp.add_argument("--collinear", choices=["yes", "no"], default="yes")
    sp.add_argument("--cubic-file", help="file providing the cubic for the artal recipe")
    sp.add_argument("--cubic", help="curve name of the cubic in --cubic-file")
    sp.add_argument("--out", help="write the resulting curve file here (default stdout)")
    common(sp)

    return p


def _read_file(path):
    if path == "-":
        text = sys.stdin.read()
        return text, "<stdin>"
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read(), path


def _report(command, inputs, seeds, results, t0):
    return {
        "command": command,
        "inputs": inputs,
        "seeds": seeds,
        "results": results,
        "elapsed_seconds": round(time.time() - t0, 3),
    }


def _hash_inputs(text, name):
    return {"file": name, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _cluster_json(cluster, mult):
    entry = {
        "size": cluster.size,
        "multiplicity": mult,
        "x_min_poly": [str(c) for c in cluster.x_minpoly.coeffs],
    }
    if cluster.size == 1:
        _, pt = cluster.normalized_center()
        entry["point"] = [str(c) for c in pt]
    return entry


def cmd_intersect(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    div = intersect(cf.curve(args.d), cf.curve(args.c), rng_seed=args.seed)
    results = {
        "on": args.d,
        "other": args.c,
        "bezout_total": div.degree(),
        "clusters": [_cluster_json(cl, m) for cl, m in div.clusters],
    }
    rep = _report("intersect", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        print(f"{args.d} . {args.c}: total degree {results['bezout_total']}")
        for c in results["clusters"]:
            pt = f" point ({':'.join(c['point'])})" if "point" in c else ""
            print(f"  cluster size {c['size']}, multiplicity {c['multiplicity']}{pt}")
    return EXIT_OK, rep


def cmd_torsion(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    dec = cf.decomposition(args.decomposition, rng_seed=args.seed, smooth_trials=args.trials)
    orders = dec.order_tuple()
    results = {
        "n": dec.n,
        "degrees": list(dec.degrees),
        "orders": list(orders),
        "witnesses": [dec.part_torsion(j).witness.text() for j in range(dec.k)],
    }
    rep = _report("torsion", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        print(f"decomposition {args.decomposition}: n = {dec.n}")
        for j, nu in enumerate(orders):
            print(f"  part {j + 1} (degree {dec.degrees[j]}): order {nu}")
    return EXIT_OK, rep


def cmd_splitting(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    dec = cf.decomposition(args.decomposition, rng_seed=args.seed, smooth_trials=args.trials)
    table = splitting_table(dec)
    results = {
        "n": table.n,
        "degrees": list(table.degrees),
        "entries": [
            {"a": list(a), "order": nu, "splitting_number": s}
            for a, (nu, s) in sorted(table.entries.items())
        ],
    }
    rep = _report("splitting", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        print(f"decomposition {args.decomposition}: n = {table.n}")
        for e in results["entries"]:
            print(f"  a = {tuple(e['a'])}: order {e['order']}, splitting number {e['splitting_number']}")
    return EXIT_OK, rep


def cmd_group(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    dec = cf.decomposition(args.decomposition, rng_seed=args.seed, smooth_trials=args.trials)
    lat = relation_lattice(dec, max_sweep=args.max_sweep)
    results = {
        "n": lat.n,
        "k": lat.k,
        "invariant_factors": list(lat.invariant_factors),
        "group": _group_text(lat.invariant_factors),
        "kernel_hnf": [list(r) for r in lat.hnf],
    }
    rep = _report("group", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        print(
            f"decomposition {args.decomposition}: invariant factors "
            f"{tuple(lat.invariant_factors)} ({results['group']})"
        )
    return EXIT_OK, rep


def _group_text(factors):
    nontrivial = [f for f in factors if f not in (0, 1)]
    if not nontrivial:
        return "trivial"
    return " x ".join(f"Z/{f}" for f in nontrivial)


def _certify_results(report):
    out = report.as_dict()
    if out.get("kernels"):
        out["kernels"] = [[list(r) for r in h] for h in out["kernels"]]
    return out


def cmd_certify(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    dec1 = cf.decomposition(args.dec1, rng_seed=args.seed, smooth_trials=args.trials)
    dec2 = cf.decomposition(args.dec2, rng_seed=args.seed, smooth_trials=args.trials)
    report = certify(dec1, dec2, max_sweep=args.max_sweep, rng_seed=args.seed)
    results = _certify_results(report)
    rep = _report("certify", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        print(f"{args.dec1} vs {args.dec2}: {report.verdict}")
        if report.rule:
            print(f"  rule: {report.rule}")
        print(f"  {report.reason}")
    return (EXIT_OK if report.verdict == "ZariskiPair" else EXIT_INCONCLUSIVE), rep


def cmd_certify_all(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    names = [s.name for s in cf.decompositions]
    decs = [cf.decomposition(n, rng_seed=args.seed, smooth_trials=args.trials) for n in names]
    rows = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            report = certify(decs[i], decs[j], max_sweep=args.max_sweep, rng_seed=args.seed)
            rows.append({"pair": [names[i], names[j]], **_certify_results(report)})
    rep = _report("certify-all", _hash_inputs(text, name), {"seed": args.seed}, {"pairs": rows}, t0)
    if not args.json:
        for row in rows:
            rule = f" via {row['rule']}" if row["rule"] else ""
            print(f"{row['pair'][0]} vs {row['pair'][1]}: {row['verdict']}{rule}")
    return EXIT_OK, rep


def cmd_verify_type(args):
    t0 = time.time()
    text, name = _read_file(args.file)
    cf = loads_curve_file(text)
    report = verify_type(cf.curve(args.d), cf.curve(args.c), rng_seed=args.seed, trials=args.trials)
    results = {
        "ok": report.ok,
        "failures": report.failures,
        "n": report.n,
        "nu": report.nu,
        "type": list(report.pair.type_tuple) if report.pair else None,
    }
    rep = _report("verify-type", _hash_inputs(text, name), {"seed": args.seed}, results, t0)
    if not args.json:
        if report.ok:
            d0, d1, n, nu = report.pair.type_tuple
            print(f"verified: type ({d0},{d1};{n},{nu})")
        else:
            print("verification failed:")
            for f in report.failures:
                print(f"  {f}")
    return (EXIT_OK if report.ok else EXIT_INCONCLUSIVE), rep


def cmd_construct(args):
    t0 = time.time()
    recipe = args.recipe
    seeds = {"seed": args.seed}
    if recipe == "transversal":
        if not args.degrees:
            raise CurveFileError("--degrees D0 D1 is required for the transversal recipe")
        pair = transversal_seed(args.degrees[0], args.degrees[1], rng_seed=args.seed)
        out_cf = curve_file_for_pair(pair, name=f"transversal-{args.degrees[0]}-{args.degrees[1]}")
    elif recipe == "power-k":
        if not args.from_file or args.k is None:
            raise CurveFileError("--from FILE and --k are required for the power-k recipe")
        text, _ = _read_file(args.from_file)
        src = loads_curve_file(text)
        spec = src.typed_pair_spec(args.pair)
        base = verify_type(src.curve(spec.d), src.curve(spec.c), rng_seed=args.seed)
        if not base.ok:
            raise CurveFileError(f"input pair does not verify: {base.failures}")
        from .construct import ConstructionStep

        base.pair.provenance = [
            ConstructionStep(p.get("kind", "?"), p.get("parameters", {}), p.get("rng_seed", 0))
            for p in spec.provenance
        ]
        pair = power_of_k(base.pair, args.k, rng_seed=args.seed)
        out_cf = curve_file_for_pair(pair, name=f"power-{args.k}")
    elif recipe == "artal":
        if args.cubic_file:
            text, _ = _read_file(args.cubic_file)
            cubic = loads_curve_file(text).curve(args.cubic or "E")
        else:
            cubic = PlaneCurve(HomogeneousPoly.from_terms(FERMAT), "E")
        dec = artal_arrangement(cubic, collinear=(args.collinear == "yes"), rng_seed=args.seed)
        field = next((c.field for p in dec.parts for c in p.components if c.field != QQ), None)
        out_cf = curve_file_for_decompositions([dec], field=field)
    elif recipe == "tangents":
        dec_eq, dec_df = tangent_quadruple_arrangements(rng_seed=args.seed)
        out_cf = curve_file_for_decompositions([dec_eq, dec_df])
    elif recipe == "type-4663":
        pair = build_type_4663(rng_seed=args.seed)
        out_cf = curve_file_for_pair(pair, name="type-4663")
    else:  # pragma: no cover
        raise CurveFileError(f"unknown recipe {recipe}")
    payload = out_cf.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    results = {"recipe": recipe, "curve_file": out_cf.as_dict(), "written_to": args.out}
    rep = _report("construct", {"file": None, "sha256": None}, seeds, results, t0)
    if not args.json and not args.out:
        sys.stdout.write(payload)
    elif not args.json:
        print(f"wrote {args.out}")
    return EXIT_OK, rep


COMMANDS = {
    "intersect": cmd_intersect,
    "torsion": cmd_torsion,
    "splitting": cmd_splitting,
    "group": cmd_group,
    "certify": cmd_certify,
    "certify-all": cmd_certify_all,
    "verify-type": cmd_verify_type,
    "construct": cmd_construct,
}

INPUT_ERRORS = (
    ParseError,
    CurveFileError,
    CoverError,
    PicardError,
    GeometryError,
    FileNotFoundError,
    IsADirectoryError,
)
# A tower is refused up front (NonRationalPointError, an input error), and a
# generic shear avoids every other rejection reason, so exhausting them is internal.
INTERNAL_ERRORS = (CertificationError, ShearExhaustedError, ConstructionError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with GeometryCache():
            code, report = COMMANDS[args.command](args)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        return code
    except PreconditionError as e:  # a ConstructionError that judges the input
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except INTERNAL_ERRORS as e:
        print(f"certification failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except INPUT_ERRORS as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
