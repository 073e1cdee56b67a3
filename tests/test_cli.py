import contextvars
import json
import sys
from pathlib import Path

import pytest

from curvetorsion import cli
from curvetorsion.cli import COMMANDS, build_parser, main
from curvetorsion.curves import GeometryCache

ARTAL = json.dumps(
    {
        "curves": [
            {"name": "E", "poly": "x^3 + y^3 + z^3"},
            {"name": "T1", "poly": "x + y"},
            {"name": "T2", "poly": "y + z"},
            {"name": "T3", "poly": "x + z"},
        ],
        "decompositions": [
            {"name": "collinear", "smooth": "E", "parts": [["T1", "T2", "T3"]]}
        ],
    }
)


@pytest.fixture()
def artal_file(tmp_path):
    p = tmp_path / "artal.json"
    p.write_text(ARTAL)
    return str(p)


def test_intersect_command(artal_file, capsys):
    rc = main(["intersect", artal_file, "E", "T1", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["bezout_total"] == 3
    assert rep["results"]["clusters"][0]["multiplicity"] == 3
    assert rep["inputs"]["sha256"]


def test_torsion_command(artal_file, capsys):
    rc = main(["torsion", artal_file, "collinear", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["n"] == 3
    assert rep["results"]["orders"] == [1]
    assert rep["results"]["witnesses"] == ["x + y + z"]


def test_splitting_command(artal_file, capsys):
    rc = main(["splitting", artal_file, "collinear", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["entries"] == [
        {"a": [1], "order": 1, "splitting_number": 3}
    ]


def test_group_command(artal_file, capsys):
    rc = main(["group", artal_file, "collinear", "--json"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["invariant_factors"] == [1]
    assert rep["results"]["group"] == "trivial"


def test_reports_are_deterministic(artal_file, capsys):
    rc = main(["torsion", artal_file, "collinear", "--json", "--seed", "5"])
    out1 = json.loads(capsys.readouterr().out)["results"]
    rc = main(["torsion", artal_file, "collinear", "--json", "--seed", "5"])
    out2 = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0 and out1 == out2


def test_missing_curve_is_input_error(artal_file, capsys):
    assert main(["intersect", artal_file, "E", "NOPE"]) == 3


def test_bad_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["torsion", str(p), "x"]) == 3


def test_missing_args_is_input_error(capsys):
    assert main(["construct", "--recipe", "power-k"]) == 3


def test_construct_artal_and_certify(tmp_path, capsys):
    out = tmp_path / "pair.json"
    rc = main(["construct", "--recipe", "artal", "--collinear", "no", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    # merge with the rational triangle to certify the pair
    noncol = json.loads(out.read_text())
    merged = json.loads(ARTAL)
    rename = {}
    for c in noncol["curves"]:
        if c["name"] == "E":
            continue
        rename[c["name"]] = c["name"] + "n"
        merged["curves"].append({"name": c["name"] + "n", "poly": c["poly"]})
    merged["field"] = noncol["field"]
    merged["decompositions"].append(
        {
            "name": "noncollinear",
            "smooth": "E",
            "parts": [[rename[n] for n in noncol["decompositions"][0]["parts"][0]]],
        }
    )
    merged_path = tmp_path / "merged.json"
    merged_path.write_text(json.dumps(merged))
    rc = main(["certify", str(merged_path), "collinear", "noncollinear", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["results"]["verdict"] == "ZariskiPair"
    assert rep["results"]["rule"] == "Cor (i)"


def test_construct_artal_at_a_seed_with_a_singular_shear(capsys):
    # the smoothness checks at this seed meet a discriminant with a repeated
    # quadratic factor
    assert main(["construct", "--recipe", "artal", "--seed", "558878"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_certify_identical_exits_two(artal_file, capsys):
    rc = main(["certify", artal_file, "collinear", "collinear"])
    assert rc == 2


def test_verify_type_roundtrip(tmp_path, capsys):
    out = tmp_path / "seed.json"
    rc = main(["construct", "--recipe", "transversal", "--degrees", "1", "3",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    d, c = data["typed_pairs"][0]["d"], data["typed_pairs"][0]["c"]
    rc = main(["verify-type", str(out), d, c, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["results"]["type"] == [1, 3, 1, 1]


def test_verify_type_failure_exits_two(tmp_path, capsys):
    # a simple tangent line: local numbers 2 and 1, so not a typed pair
    bad = {
        "curves": [
            {"name": "E", "poly": "y^2*z - x^3 - z^3"},
            {"name": "L", "poly": "-2*x + y + z"},
        ]
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    rc = main(["verify-type", str(p), "L", "E"])
    assert rc == 2


def test_stdin_input(artal_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(ARTAL))
    rc = main(["torsion", "-", "collinear"])
    assert rc == 0


def test_verify_type_over_degree_four_field(tmp_path, capsys):
    # verification-only path for user-supplied equations over a number field
    data = {
        "field": {"generator": "s", "min_poly": "s^4 - 2"},
        "curves": [
            {"name": "D", "poly": "x - s*z"},
            {"name": "C", "poly": "x^2 + y^2 - (s^2 + 1)*z^2"},
        ],
    }
    p = tmp_path / "nf.json"
    p.write_text(json.dumps(data))
    rc = main(["verify-type", str(p), "D", "C", "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["results"]["type"] == [1, 2, 1, 1]


SAMPLES = Path(__file__).resolve().parent.parent / "sample_curves"


def _sample_requests():
    for path in sorted(SAMPLES.glob("*.json")):
        decs = [d["name"] for d in json.loads(path.read_text()).get("decompositions", [])]
        if not decs:
            continue
        f = str(path)
        yield ["certify-all", f]
        if len(decs) > 1:
            yield ["certify", f, decs[0], decs[-1]]
        yield ["torsion", f, decs[0]]
        yield ["group", f, decs[0]]


@pytest.mark.parametrize("argv", list(_sample_requests()), ids=lambda a: f"{a[0]}-{Path(a[1]).stem}")
def test_results_identical_with_and_without_cache(argv, capsys):
    argv = argv + ["--json", "--seed", "5"]
    code = main(argv)
    cached = json.loads(capsys.readouterr().out)["results"]
    args = build_parser().parse_args(argv)
    # a fresh context has no cache scope, not even the one each test opens
    uncached_code, report = contextvars.Context().run(COMMANDS[args.command], args)
    assert (code, cached) == (uncached_code, json.loads(json.dumps(report["results"])))


@pytest.fixture()
def recorded_caches(monkeypatch):
    """The caches that cli.main opens, in order."""
    opened = []

    class Recording(GeometryCache):
        def __enter__(self):
            opened.append(self)
            return super().__enter__()

    monkeypatch.setattr(cli, "GeometryCache", Recording)
    return opened


def test_certify_all_computes_each_intersection_once(recorded_caches, capsys):
    assert main(["certify-all", str(SAMPLES / "quartic_sextic_tuple.json")]) == 0
    (cache,) = recorded_caches
    # one divisor per decomposition; every comb_type pair intersection is a repeat
    assert cache.misses["intersections"] == 3
    assert cache.hits["intersections"] == 6


def test_consecutive_requests_share_no_cache(recorded_caches, artal_file, geometry_cache, capsys):
    assert main(["torsion", artal_file, "collinear"]) == 0
    assert main(["torsion", artal_file, "collinear"]) == 0
    first, second = recorded_caches
    assert first is not second
    assert (first.hits, first.misses) == (second.hits, second.misses)
    assert second.misses["intersections"] > 0
    assert geometry_cache.hits == geometry_cache.misses == dict.fromkeys(GeometryCache.MAPS, 0)


def test_torsion_computes_each_part_order_once(monkeypatch, capsys):
    from curvetorsion.curvefile import load_curve_file
    from curvetorsion.picard import torsion_order

    path = SAMPLES / "tangent_quadruples.json"
    dec = load_curve_file(path).decomposition("equal-classes")
    direct = [torsion_order(cls, dec.n) for cls in dec.classes]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return torsion_order(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("curvetorsion") and getattr(module, "torsion_order", None) is torsion_order:
            monkeypatch.setattr(module, "torsion_order", counted)
    assert main(["torsion", str(path), "equal-classes", "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(calls) == dec.k
    assert results["orders"] == [r.order for r in direct]
    assert results["witnesses"] == [r.witness.text() for r in direct]


LINE_ON_FERMAT = json.dumps(
    {
        "curves": [{"name": "L", "poly": "x + y"}, {"name": "E", "poly": "x^3 + y^3 + z^3"}],
        "typed_pairs": [{"d": "L", "c": "E"}],
    }
)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--recipe", "transversal", "--degrees", "4", "1"],
        # the inflection tangent types (1,3;3,1), against which no power-k conclusion holds
        ["construct", "--recipe", "power-k", "--k", "3", "--from", "LINE_ON_FERMAT"],
    ],
    ids=["transversal-d0-above-d1", "power-k-without-conclusion"],
)
def test_recipe_precondition_is_an_input_error(argv, tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(LINE_ON_FERMAT)
    assert main([str(path) if a == "LINE_ON_FERMAT" else a for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err


def test_failed_recipe_search_is_a_certification_failure(monkeypatch, capsys):
    from curvetorsion import construct
    from curvetorsion.homopoly import HomogeneousPoly

    # every draw is a multiple line, so no transversal pair is ever found
    monkeypatch.setattr(construct, "rand_form", lambda d, rng: HomogeneousPoly.variable(0) ** d)
    assert main(["construct", "--recipe", "transversal", "--degrees", "2", "3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("certification failure: no transversal pair") and "Traceback" not in err
