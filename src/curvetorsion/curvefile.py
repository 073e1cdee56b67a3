"""The JSON curve-arrangement file format.

A file declares an optional coefficient field, named curves (polynomial
strings in the parser grammar), named decompositions (a smooth component
plus ordered part groups of curve names), and optional typed pairs with
their construction provenance.  Loading validates every reference and
re-parses every polynomial; serialization canonicalizes polynomial text,
so serialize(parse(file)) is stable byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .covers import Decomposition, Part
from .curves import PlaneCurve
from .fields import FieldError, NumberField
from .homopoly import generator_poly_text
from .parsing import ParseError, parse_min_poly, parse_poly


class CurveFileError(ValueError):
    pass


@dataclass
class DecompositionSpec:
    name: str
    smooth: str
    parts: list  # list of lists of curve names


@dataclass
class TypedPairSpec:
    name: str
    d: str
    c: str
    n: int | None = None
    nu: int | None = None
    provenance: list = dc_field(default_factory=list)


@dataclass
class CurveFile:
    field: NumberField | None
    curves: dict  # name -> PlaneCurve (insertion ordered)
    decompositions: list
    typed_pairs: list

    def curve(self, name: str) -> PlaneCurve:
        if name not in self.curves:
            raise CurveFileError(f"curve {name!r} is not defined in the file")
        return self.curves[name]

    def decomposition_spec(self, name: str) -> DecompositionSpec:
        for spec in self.decompositions:
            if spec.name == name:
                return spec
        raise CurveFileError(f"decomposition {name!r} is not defined in the file")

    def decomposition(self, name: str, rng_seed: int = 0, smooth_trials: int = 8) -> Decomposition:
        spec = self.decomposition_spec(name)
        d = self.curve(spec.smooth)
        parts = []
        for i, group in enumerate(spec.parts):
            parts.append(Part(tuple(self.curve(n) for n in group), name=f"part{i + 1}"))
        return Decomposition(d, parts, rng_seed=rng_seed, name=name, smooth_trials=smooth_trials)

    def typed_pair_spec(self, name: str | None) -> TypedPairSpec:
        if not self.typed_pairs:
            raise CurveFileError("file declares no typed pairs")
        if name is None:
            return self.typed_pairs[0]
        for spec in self.typed_pairs:
            if spec.name == name:
                return spec
        raise CurveFileError(f"typed pair {name!r} is not defined in the file")

    def as_dict(self) -> dict:
        out = {}
        if self.field is not None:
            out["field"] = {
                "generator": self.field.symbol,
                "min_poly": _min_poly_text(self.field),
            }
        out["curves"] = [
            {"name": name, "poly": curve.equation.text()} for name, curve in self.curves.items()
        ]
        if self.decompositions:
            out["decompositions"] = [
                {"name": s.name, "smooth": s.smooth, "parts": [list(g) for g in s.parts]}
                for s in self.decompositions
            ]
        if self.typed_pairs:
            out["typed_pairs"] = [
                {
                    "name": s.name,
                    "d": s.d,
                    "c": s.c,
                    "n": s.n,
                    "nu": s.nu,
                    "provenance": s.provenance,
                }
                for s in self.typed_pairs
            ]
        return out

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def _min_poly_text(field: NumberField) -> str:
    return generator_poly_text(
        ((i, field.min_poly[i]) for i in range(field.degree, -1, -1)), field.symbol
    )


def loads_curve_file(text: str) -> CurveFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise CurveFileError(f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise CurveFileError("curve file must be a JSON object")
    field = None
    if "field" in raw and raw["field"] is not None:
        spec = raw["field"]
        if not isinstance(spec, dict):
            raise CurveFileError("field block must be a JSON object")
        symbol = spec.get("generator", "t")
        if not isinstance(symbol, str):
            raise CurveFileError("field generator must be a string")
        if symbol in ("x", "y", "z"):
            raise CurveFileError("field generator may not shadow x, y, z")
        if not isinstance(spec.get("min_poly"), str):
            raise CurveFileError("bad field block: min_poly must be a string")
        try:
            mp = parse_min_poly(spec["min_poly"], symbol)
        except ParseError as e:
            raise CurveFileError(f"bad field block: {e}") from e
        if mp.degree < 1 or mp.lc != 1:
            raise CurveFileError("minimal polynomial must be monic of degree >= 1")
        try:
            field = NumberField(mp.coeffs, symbol=symbol)
        except FieldError as e:
            raise CurveFileError(f"bad field block: {e}") from e
    curves = {}
    if not isinstance(raw.get("curves", []), list):
        raise CurveFileError("curves must be a JSON list")
    for entry in raw.get("curves", []):
        if not isinstance(entry, dict):
            raise CurveFileError("every curve must be a JSON object")
        name = entry.get("name")
        if not name or not isinstance(name, str):
            raise CurveFileError("every curve needs a nonempty name")
        if name in curves:
            raise CurveFileError(f"duplicate curve name {name!r}")
        if "poly" not in entry:
            raise CurveFileError(f"curve {name!r} has no polynomial")
        if not isinstance(entry["poly"], str):
            raise CurveFileError(f"curve {name!r}: poly must be a string")
        try:
            poly = parse_poly(entry["poly"], field)
        except ParseError as e:
            raise CurveFileError(f"curve {name!r}: {e}") from e
        curves[name] = PlaneCurve(poly, name)
    decomps = []
    if not isinstance(raw.get("decompositions", []), list):
        raise CurveFileError("decompositions must be a JSON list")
    for entry in raw.get("decompositions", []):
        if not isinstance(entry, dict):
            raise CurveFileError("every decomposition must be a JSON object")
        name = entry.get("name", "")
        smooth = entry.get("smooth")
        parts = entry.get("parts", [])
        if not isinstance(parts, list) or not all(
            isinstance(g, list) and g and all(isinstance(c, str) for c in g) for g in parts
        ):
            raise CurveFileError(f"decomposition {name!r}: parts must be lists of curve names")
        if not isinstance(smooth, str) or smooth not in curves:
            raise CurveFileError(f"decomposition {name!r}: unknown smooth component {smooth!r}")
        seen = set()
        for group in parts:
            for cname in group:
                if cname not in curves:
                    raise CurveFileError(f"decomposition {name!r}: unknown curve {cname!r}")
                if cname == smooth:
                    raise CurveFileError(
                        f"decomposition {name!r}: smooth component repeated in a part"
                    )
                if cname in seen:
                    raise CurveFileError(
                        f"decomposition {name!r}: curve {cname!r} appears in two parts"
                    )
                seen.add(cname)
        if not parts:
            raise CurveFileError(f"decomposition {name!r} has no parts")
        decomps.append(DecompositionSpec(name, smooth, [list(g) for g in parts]))
    pairs = []
    if not isinstance(raw.get("typed_pairs", []), list):
        raise CurveFileError("typed_pairs must be a JSON list")
    for entry in raw.get("typed_pairs", []):
        if not isinstance(entry, dict):
            raise CurveFileError("every typed pair must be a JSON object")
        dname, cname = entry.get("d"), entry.get("c")
        if not all(isinstance(c, str) and c in curves for c in (dname, cname)):
            raise CurveFileError(f"typed pair references unknown curves {dname!r}, {cname!r}")
        provenance = entry.get("provenance", [])
        if not isinstance(provenance, list) or not all(isinstance(p, dict) for p in provenance):
            raise CurveFileError("typed pair provenance must be a list of JSON objects")
        pairs.append(
            TypedPairSpec(
                name=entry.get("name", ""),
                d=dname,
                c=cname,
                n=entry.get("n"),
                nu=entry.get("nu"),
                provenance=provenance,
            )
        )
    return CurveFile(field, curves, decomps, pairs)


def load_curve_file(path) -> CurveFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_curve_file(fh.read())


def curve_file_for_pair(pair, name="pair") -> CurveFile:
    """Serialize a typed pair (with provenance) into a curve file object."""
    dname = pair.d.name or "D"
    cname = pair.c.name or "C"
    curves = {dname: pair.d, cname: pair.c}
    spec = TypedPairSpec(
        name=name,
        d=dname,
        c=cname,
        n=pair.n,
        nu=pair.nu,
        provenance=[
            {"kind": s.kind, "parameters": _json_safe(s.parameters), "rng_seed": s.rng_seed}
            for s in pair.provenance
        ],
    )
    decomp = DecompositionSpec(name=f"{name}-dec", smooth=dname, parts=[[cname]])
    return CurveFile(None, curves, [decomp], [spec])


def curve_file_for_decompositions(decs, field=None) -> CurveFile:
    """Serialize decompositions sharing one ambient arrangement field.

    Distinct curves that happen to share a name get numbered suffixes; the
    same curve object is never written twice.
    """
    curves = {}

    def register(comp, fallback):
        name = comp.name or fallback
        base, k = name, 2
        while name in curves and curves[name] is not comp:
            name = f"{base}_{k}"
            k += 1
        curves.setdefault(name, comp)
        return name

    specs = []
    for dec in decs:
        dname = register(dec.d, "D")
        groups = []
        for part in dec.parts:
            groups.append([register(comp, f"C{len(curves)}") for comp in part.components])
        specs.append(DecompositionSpec(dec.name or f"dec{len(specs) + 1}", dname, groups))
    return CurveFile(field, curves, specs, [])


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (int, str, bool)) or obj is None:
        return obj
    return str(obj)
