"""Seeded inputs, request lists and reference answers for the three workloads.

Every workload drives the public CLI (``curvetorsion.cli.main``).  The
workload seed picks the input cases of each pass, each made of invertible
3x3 integer matrices and program seeds.  The curves of a sample file are
moved by the matrices with ``HomogeneousPoly.linear_change`` and the moved
file is written to the run's work directory; the program seeds are passed
as ``--seed``.  The same workload seed gives the same cases and
byte-identical files.

The reference answers are projective invariants (torsion orders, splitting
numbers, invariant factors, verdicts, combinatorial counts and types), so
they hold for every seed.  A response is correct only when every checked
invariant equals its reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("quartic-tuple", "cubic-arrangements", "construct-chains")

# Why each workload exists; the text is repeated in BENCHMARK.json.
WHY = {
    "quartic-tuple": "certify-all on the quartic-sextic Zariski tuple: resultants, intersect and local_param dominate",
    "cubic-arrangements": "torsion, splitting, group and certify on cubic arrangements: Picard systems, lattice sweep, number fields",
    "construct-chains": "construction recipes write curve files that verify-type reads back: smoothness checks on fresh inputs",
}


# Input cases per pass.  Only about four cases of quartic-tuple or
# construct-chains fit in a run, and their cost varies: a quartic-tuple case
# takes 6.5 to 12 s, mostly by how many random shears the program seed makes
# intersect reject for the type-4663 pair (1 to 7 each time that pair is
# intersected); construct-chains cases vary by 13%.  A pass of two cases
# halves the variance of each pass time.
CASES_PER_PASS = {"quartic-tuple": 2, "cubic-arrangements": 1, "construct-chains": 2}

# Passes per run at least, so that a run's median covers several cases also
# when the machine is slow and a pass takes 20 s of a 30 s run.
MIN_PASSES = {"quartic-tuple": 2, "cubic-arrangements": 3, "construct-chains": 2}


# Program seeds of construct-chains.  The recipes' random candidate searches
# reach a program defect on about 4% of seeds: when a curve over Q has a
# repeated discriminant factor of degree >= 2 under the projection,
# ``curves._singular_witness`` coerces number-field values into Q and the
# FieldError escapes ``cli.main`` (``construct --recipe artal --seed 558878``).
# A workload must be one on which no request fails, so construct-chains draws
# its program seeds from 0 .. CONSTRUCT_SEEDS - 1, each of which ran every
# chain of the request list without reaching the defect.  ``test_bench.py``
# keeps the defect on record and fails once it is fixed; the pool can go then.
CONSTRUCT_SEEDS = 64

# Program seeds per case: one per request (cubic-arrangements) or per chain of
# requests that share files (construct-chains).  The cost of a case varies
# with its seeds and coordinate changes (on one fixed input the pass time
# varies by 3%, across cases by 13-26%), so every independent part of the
# input takes its own draw and a pass averages over several.
PROGRAM_SEEDS = {"quartic-tuple": 1, "cubic-arrangements": 10, "construct-chains": 5}


def _rng(seed: int, index: int, what: str):
    return random.Random(f"{seed}/{index}/{what}")


def program_seeds(workload: str, seed: int, index: int) -> list:
    """The program seeds of the index-th input case of a run."""
    rng = _rng(seed, index, "program")
    pool = CONSTRUCT_SEEDS if workload == "construct-chains" else 10**6
    return [rng.randrange(pool) for _ in range(PROGRAM_SEEDS[workload])]


def _matrix(rng):
    """An invertible 3x3 integer matrix with entries in [-1, 1]."""
    while True:
        m = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            return m


def _groups(raw: dict) -> list:
    """The curve names of a curve file, grouped so that no decomposition spans two groups."""
    groups = []
    for dec in raw["decompositions"]:
        names = {dec["smooth"], *(c for part in dec["parts"] for c in part)}
        for g in [g for g in groups if g & names]:
            groups.remove(g)
            names |= g
        groups.append(names)
    return groups


def transformed_file_text(text: str, matrices: list) -> str:
    """The curve file ``text`` with the curves of its i-th group moved by ``matrices[i]``.

    The invariants are those of each decomposition, so each group may take
    its own coordinate change.
    """
    from curvetorsion.curvefile import loads_curve_file

    cf = loads_curve_file(text)
    raw = json.loads(text)
    matrix_of = {name: m for group, m in zip(_groups(raw), matrices, strict=True) for name in group}
    for entry in raw["curves"]:
        entry["poly"] = cf.curve(entry["name"]).equation.linear_change(matrix_of[entry["name"]]).text()
    return json.dumps(raw, indent=2, sort_keys=True) + "\n"


SOURCES = {
    "quartic-tuple": {"tuple.json": "quartic_sextic_tuple.json"},
    "cubic-arrangements": {
        "artal.json": "fermat_artal_pair.json",
        "tangents.json": "tangent_quadruples.json",
    },
    # The recipes build their own curves; only the program seeds vary.
    "construct-chains": {},
}


def generate_inputs(workload: str, seed: int, index: int, root: Path, out_dir: Path) -> dict:
    """Write the curve files of the index-th input case into ``out_dir``.

    Every group of curves (see ``_groups``) is moved by its own invertible
    integer matrix with entries in [-1, 1].  Returns the matrices per file.
    """
    rng = _rng(seed, index, "matrix")
    used = {}
    for target, source in SOURCES[workload].items():
        text = (root / "sample_curves" / source).read_text(encoding="utf-8")
        used[target] = [_matrix(rng) for _ in _groups(json.loads(text))]
        (out_dir / target).write_text(transformed_file_text(text, used[target]), encoding="utf-8")
    return used


# ---------------------------------------------------------------------------
# Reference answers


def _summary(root: Path):
    return json.loads((root / "sample_curves" / "summary.json").read_text(encoding="utf-8"))


def _certify_invariants(out: dict) -> dict:
    return {
        "verdict": out["verdict"],
        "rule": out["rule"],
        "n": out["n"],
        "orders": out["orders"],
        "invariant_factors": out["invariant_factors"],
        "equivalence_maps": out["equivalence_maps"],
        "admissible_permutations": out["admissible_permutations"],
    }


def _splitting_invariants(res: dict) -> dict:
    return {
        "n": res["n"],
        "entries": [[e["a"], e["order"], e["splitting_number"]] for e in res["entries"]],
    }


def _type_of_pair_file(cf: dict) -> list:
    (tp,) = cf["typed_pairs"]
    degrees = {c["name"]: _degree(c["poly"]) for c in cf["curves"]}
    return [degrees[tp["d"]], degrees[tp["c"]], tp["n"], tp["nu"]]


def _degree(poly_text: str) -> int:
    from curvetorsion.parsing import parse_poly

    return parse_poly(poly_text).degree


def _decomposition_shape(cf: dict) -> list:
    """[degree of D, [components per part]] for every decomposition of a curve file."""
    degrees = {c["name"]: _degree(c["poly"]) for c in cf["curves"]}
    return [[degrees[d["smooth"]], [len(g) for g in d["parts"]]] for d in cf["decompositions"]]


def _request(argv, extract, expected):
    return {"argv": argv, "extract": extract, "expected": expected}


def requests(workload: str, seeds: list, work: Path, pass_dir: Path, root: Path) -> list:
    """The request list of one pass: argv, invariant extractor, expected invariants.

    ``seeds`` are the case's program seeds (see ``PROGRAM_SEEDS``); ``work``
    holds the generated inputs; ``pass_dir`` is empty and receives the files
    that construct requests write during the pass.
    """
    opts = [["--seed", str(seed), "--json"] for seed in seeds]
    summary = _summary(root)
    if workload == "quartic-tuple":
        expected = []
        for row in summary["tuple"]:
            inv = _certify_invariants(row)
            expected.append({"pair": row["pair"], **inv})
        return [
            _request(
                ["certify-all", str(work / "tuple.json"), *opts[0]],
                lambda rep: [{"pair": r["pair"], **_certify_invariants(r)} for r in rep["results"]["pairs"]],
                expected,
            )
        ]
    if workload == "cubic-arrangements":
        artal, tangents = str(work / "artal.json"), str(work / "tangents.json")
        orders = lambda rep: {"n": rep["results"]["n"], "orders": rep["results"]["orders"]}
        factors = lambda rep: {"n": rep["results"]["n"], "invariant_factors": rep["results"]["invariant_factors"]}
        split = lambda rep: _splitting_invariants(rep["results"])
        cert = lambda rep: _certify_invariants(rep["results"])
        reqs = [
            (["certify", artal, "collinear", "noncollinear"], cert, _certify_invariants(summary["artal"])),
            (["torsion", artal, "collinear"], orders, {"n": 3, "orders": [1]}),
            (["torsion", artal, "noncollinear"], orders, {"n": 3, "orders": [3]}),
            (["splitting", artal, "collinear"], split, {"n": 3, "entries": [[[1], 1, 3]]}),
            (["splitting", artal, "noncollinear"], split, {"n": 3, "entries": [[[1], 3, 1]]}),
            (["certify", tangents, "equal-classes", "distinct-classes"], cert, _certify_invariants(summary["tangents"])),
            (["group", tangents, "equal-classes"], factors, {"n": 2, "invariant_factors": [1, 2]}),
            (["group", tangents, "distinct-classes"], factors, {"n": 2, "invariant_factors": [2, 2]}),
            (["torsion", tangents, "equal-classes"], orders, {"n": 2, "orders": [2, 2]}),
            (["torsion", tangents, "distinct-classes"], orders, {"n": 2, "orders": [2, 2]}),
        ]
        return [_request([*argv, *o], extract, expected) for (argv, extract, expected), o in zip(reqs, opts, strict=True)]
    if workload == "construct-chains":
        out = lambda name: str(pass_dir / name)
        built = lambda rep: _type_of_pair_file(rep["results"]["curve_file"])
        shape = lambda rep: _decomposition_shape(rep["results"]["curve_file"])
        # (chain, recipe, file written, type); a chain's requests share one program seed.
        typed = [
            (0, ["--recipe", "transversal", "--degrees", "1", "4"], "t14.json", [1, 4, 1, 1]),
            (0, ["--recipe", "power-k", "--from", out("t14.json"), "--k", "6"], "t4661.json", [4, 6, 6, 1]),
            (1, ["--recipe", "transversal", "--degrees", "2", "2"], "t22.json", [2, 2, 1, 1]),
            (1, ["--recipe", "power-k", "--from", out("t22.json"), "--k", "2"], "t2421.json", [2, 4, 2, 1]),
            (1, ["--recipe", "power-k", "--from", out("t2421.json"), "--k", "3"], "t4662.json", [4, 6, 6, 2]),
            (2, ["--recipe", "type-4663"], "t4663.json", [4, 6, 6, 3]),
        ]
        reqs = []
        for chain, recipe, name, typ in typed:
            reqs.append(_request(["construct", *recipe, "--out", out(name), *opts[chain]], built, typ))
            reqs.append(_verify_request(out(name), opts[chain], typ))
        artal = ["construct", "--recipe", "artal", "--out", out("artal.json"), *opts[3]]
        tangents = ["construct", "--recipe", "tangents", "--out", out("tangents.json"), *opts[4]]
        reqs.append(_request(artal, shape, [[3, [3]]]))
        reqs.append(_request(tangents, shape, [[3, [2, 2]], [3, [2, 2]]]))
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def _verify_request(path: str, s: list, typ: list) -> dict:
    """verify-type on the typed pair the previous request wrote to ``path``.

    The curve names are read from the file when the request is sent, since
    the file does not exist before the construct request has run.
    """
    verified = lambda rep: {"ok": rep["results"]["ok"], "type": rep["results"]["type"]}
    req = _request(None, verified, {"ok": True, "type": typ})
    req["argv_from"] = lambda: _verify_argv(path, s)
    return req


def _verify_argv(path: str, s: list) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            (tp,) = json.load(fh)["typed_pairs"]
        names = [tp["d"], tp["c"]]
    except (OSError, ValueError, KeyError):
        # The construct request failed; this request then fails as well.
        names = ["?", "?"]
    return ["verify-type", path, *names, *s]


def check(req: dict, code, stdout: str):
    """(ok, invariants, reason) for one response."""
    if code != 0:
        return False, None, f"exit code {code}"
    try:
        rep = json.loads(stdout)
        got = req["extract"](rep)
    except (ValueError, KeyError, TypeError) as e:
        return False, None, f"unreadable report: {type(e).__name__}: {e}"
    if got != req["expected"]:
        return False, got, "invariants differ from the reference"
    return True, got, ""


def digest(invariants) -> str:
    return hashlib.sha256(json.dumps(invariants, sort_keys=True).encode("utf-8")).hexdigest()
