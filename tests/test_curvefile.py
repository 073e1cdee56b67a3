import json

import pytest

from curvetorsion.cli import main
from curvetorsion.curvefile import (
    CurveFileError,
    curve_file_for_decompositions,
    curve_file_for_pair,
    loads_curve_file,
)
from curvetorsion.fields import QQ


BASIC = {
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


def test_load_and_build_decomposition():
    cf = loads_curve_file(json.dumps(BASIC))
    dec = cf.decomposition("collinear")
    assert dec.n == 3 and dec.k == 1


def test_roundtrip_is_stable():
    cf = loads_curve_file(json.dumps(BASIC))
    text1 = cf.dumps()
    text2 = loads_curve_file(text1).dumps()
    assert text1 == text2


def test_unknown_curve_reference():
    bad = dict(BASIC, decompositions=[{"name": "d", "smooth": "E", "parts": [["NOPE"]]}])
    with pytest.raises(CurveFileError):
        loads_curve_file(json.dumps(bad))


def test_duplicate_part_membership():
    bad = dict(
        BASIC,
        decompositions=[{"name": "d", "smooth": "E", "parts": [["T1"], ["T1", "T2"]]}],
    )
    with pytest.raises(CurveFileError):
        loads_curve_file(json.dumps(bad))


def test_smooth_component_not_in_parts():
    bad = dict(BASIC, decompositions=[{"name": "d", "smooth": "E", "parts": [["E"]]}])
    with pytest.raises(CurveFileError):
        loads_curve_file(json.dumps(bad))


def test_generator_shadowing_rejected():
    bad = dict(BASIC, field={"generator": "x", "min_poly": "x^2+1"})
    with pytest.raises(CurveFileError):
        loads_curve_file(json.dumps(bad))


def test_bad_polynomial_reported_with_name():
    bad = {"curves": [{"name": "E", "poly": "x^2 + y"}]}
    with pytest.raises(CurveFileError) as e:
        loads_curve_file(json.dumps(bad))
    assert "'E'" in str(e.value)


def test_field_block_roundtrip(artal_pair):
    _, dec2 = artal_pair
    field = next(c.field for p in dec2.parts for c in p.components if c.field != QQ)
    cf = curve_file_for_decompositions([dec2], field=field)
    text1 = cf.dumps()
    cf2 = loads_curve_file(text1)
    assert cf2.dumps() == text1
    dec = cf2.decomposition(dec2.name)
    assert dec.n == 3


def test_pair_file_roundtrip(chain_4661):
    _, pair = chain_4661
    cf = curve_file_for_pair(pair, name="t4661")
    cf2 = loads_curve_file(cf.dumps())
    spec = cf2.typed_pair_spec("t4661")
    assert (spec.n, spec.nu) == (6, 1)
    assert cf2.curve(spec.d).degree == 4 and cf2.curve(spec.c).degree == 6


def test_name_collisions_across_decompositions(chain_4661, pair_4663):
    from curvetorsion.covers import Decomposition, Part

    d1 = Decomposition(chain_4661[1].d, [Part((chain_4661[1].c,))], name="a")
    d2 = Decomposition(pair_4663.d, [Part((pair_4663.c,))], name="b")
    # both pairs name their curves C4 and B6; serialization must keep them apart
    cf = curve_file_for_decompositions([d1, d2])
    assert len(cf.curves) == 4
    reloaded = loads_curve_file(cf.dumps())
    assert reloaded.decomposition("a").n == 6
    assert reloaded.decomposition("b").n == 6
    assert reloaded.decomposition("b").order_tuple() == (3,)


NF = {"generator": "r", "min_poly": "r^2 + 1"}


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"field": dict(NF, min_poly="r^2-1")}, "reducible"),
        ({"field": dict(NF, min_poly=3)}, "min_poly must be a string"),
        ({"field": dict(NF, generator=3)}, "generator must be a string"),
        ({"field": 3}, "field block must be a JSON object"),
        ({"curves": [{"name": "E", "poly": 3}]}, "poly must be a string"),
        ({"curves": [3]}, "every curve must be a JSON object"),
        ({"curves": 3}, "curves must be a JSON list"),
        ({"decompositions": 3}, "decompositions must be a JSON list"),
        ({"decompositions": [3]}, "every decomposition must be a JSON object"),
        ({"decompositions": [{"name": "d", "smooth": ["E"], "parts": [["T1"]]}]}, "unknown smooth"),
        ({"decompositions": [{"name": "d", "smooth": "E", "parts": 3}]}, "parts must be lists"),
        ({"decompositions": [{"name": "d", "smooth": "E", "parts": [[["T1"]]]}]}, "parts must be lists"),
        ({"decompositions": [{"name": "d", "smooth": "E", "parts": [[]]}]}, "parts must be lists"),
        ({"typed_pairs": 3}, "typed_pairs must be a JSON list"),
        ({"typed_pairs": [3]}, "every typed pair must be a JSON object"),
        ({"typed_pairs": [{"name": "p", "d": ["T1"], "c": "E"}]}, "unknown curves"),
        ({"typed_pairs": [{"name": "p", "d": "T1", "c": "E", "provenance": 3}]}, "provenance must be"),
        ({"typed_pairs": [{"name": "p", "d": "T1", "c": "E", "provenance": [3]}]}, "provenance must be"),
    ],
)
def test_malformed_fields_are_input_errors(tmp_path, capsys, changes, message):
    data = dict(BASIC, **changes)
    with pytest.raises(CurveFileError, match=message):
        loads_curve_file(json.dumps(data))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    # an exception escaping main would fail the test before these asserts
    assert main(["torsion", str(p), "collinear"]) == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("provenance", [3, [3]])
def test_malformed_provenance_is_an_input_error_for_power_k(tmp_path, capsys, provenance):
    data = dict(BASIC, typed_pairs=[{"name": "p", "d": "T1", "c": "E", "provenance": provenance}])
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["construct", "--recipe", "power-k", "--from", str(p), "--k", "3"]) == 3
    assert "Traceback" not in capsys.readouterr().err
