"""Spans around the public functions of each curvetorsion module, from outside.

The tracer replaces every ``curvetorsion.*`` module attribute bound to a
listed function with a wrapper, because ``from .curves import intersect``
binds the same function under several module names.  Methods and the
``Decomposition`` constructor are wrapped on their class.  Spans are kept in
memory as ``[name, start, end, parent, request, attrs]`` and handed to the
client at the end of a pass; ``aggregate`` turns one pass's spans into the
per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics
import sys
import time
from pathlib import Path

# module -> wrapped public functions.  Each comment names the workloads whose
# pass_s the layer should move.
WRAPPED = {
    # cubic-arrangements (short requests) and construct-chains (writes files)
    "cli": ["main"],
    "curvefile": ["loads_curve_file", "CurveFile.dumps"],
    "parsing": ["parse_poly"],
    # intersect: quartic-tuple; check_smooth: construct-chains; local_param: cubic-arrangements
    "curves": ["intersect", "check_smooth", "local_param", "order_along"],
    # quartic-tuple and construct-chains
    "unipoly": ["resultant", "lagrange_interpolate"],
    # cubic-arrangements
    "qpoly": ["factor_rational"],
    "nffactor": ["factor_over_field"],
    "series": ["eval_form_on_series"],
    "linalg": ["kernel_basis", "smith_normal_form", "hermite_normal_form"],
    "picard": ["is_principal", "torsion_order"],
    # Decomposition: quartic-tuple; relation_lattice: cubic-arrangements
    "covers": ["Decomposition", "relation_lattice", "splitting_table"],
    # quartic-tuple and cubic-arrangements
    "combinatorics": ["certify", "comb_type", "equiv_maps", "admissible"],
    # construct-chains
    "construct": [
        "verify_type",
        "transversal_seed",
        "power_of_k",
        "build_type_4663",
        "artal_arrangement",
        "tangent_quadruple_arrangements",
    ],
    "elliptic": ["elliptic_class_order", "orbit_sum"],
}

COMMANDS = ("certify", "certify-all", "group", "splitting", "torsion", "verify-type", "construct")

MODULES = (
    "cli", "combinatorics", "construct", "covers", "curvefile", "curves", "elliptic", "fields",
    "homopoly", "linalg", "nffactor", "parsing", "picard", "qpoly", "series", "unipoly",
)

REPEAT_KEYED = ("curves.intersect", "curves.check_smooth", "curves.local_param", "covers.Decomposition")


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"cli.{c}.p50_s", "s", "lower") for c in COMMANDS]
    out.append(("worker.cpu_s", "s", "lower"))
    for mod, names in WRAPPED.items():
        for fn in names:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.self_s", "s", "lower"))
    out += [
        ("curves.intersect.shear_retries", "count", "lower"),
        ("curves.check_smooth.trials_used", "count", "lower"),
        ("curves.check_smooth.smooth_share", "share", "higher"),
        ("curves.local_param.order_sum", "count", "lower"),
    ]
    out += [(f"{name}.repeat_share", "share", "lower") for name in REPEAT_KEYED]
    out += [
        ("picard.is_principal.principal_share", "share", "higher"),
        ("picard.is_principal.kernel_dim_sum", "count", "lower"),
        ("picard.torsion_order.candidates_tested", "count", "lower"),
        ("covers.relation_lattice.sweep_vectors", "count", "lower"),
    ]
    out += [(f"{m}.src_lines", "lines", "lower") for m in MODULES]
    out += [("trace.overhead_share", "share", "lower"), ("trace.coverage_share", "share", "higher")]
    return out


# ---------------------------------------------------------------------------
# Repeat keys: canonical equation text plus cluster, order and seed.


def _digest(key):
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]


def _eq(curve):
    return curve.equation.text()


def _cluster(cl):
    return (
        str(cl.base_field),
        tuple(str(c) for c in cl.x_minpoly.coeffs),
        tuple(str(c) for c in cl.y_rep.coeffs),
        tuple(tuple(str(c) for c in row) for row in cl.shear),
    )


def _components(part):
    if hasattr(part, "components"):
        return part.components
    if hasattr(part, "equation"):
        return (part,)
    return tuple(part)


KEYS = {
    "curves.intersect": lambda a: (_eq(a["d"]), _eq(a["c"]), a["rng_seed"], a["max_shears"]),
    "curves.check_smooth": lambda a: (_eq(a["c"]), a["trials"], a["rng_seed"]),
    "curves.local_param": lambda a: (_eq(a["d"]), _cluster(a["cluster"]), a["order"]),
    "covers.Decomposition": lambda a: (
        _eq(a["d"]),
        tuple(tuple(_eq(c) for c in _components(p)) for p in a["parts"]),
        a["rng_seed"],
        a["smooth_trials"],
    ),
}

# Attributes read from arguments and results: name -> f(bound args, result) -> dict.
ATTRS = {
    "cli.main": lambda a, r: {"command": a["argv"][0]},
    "curves.check_smooth": lambda a, r: {"trials": r.trials_used, "smooth": r.is_smooth},
    "curves.local_param": lambda a, r: {"order": a["order"]},
    "picard.is_principal": lambda a, r: {"principal": r.principal, "kernel_dim": r.kernel_dim},
    "picard.torsion_order": lambda a, r: {"tested": len(r.tested)},
    "covers.relation_lattice": lambda a, r: {"sweep": r.n**r.k - 1},
}


class Tracer:
    """Span recorder for one worker process (one pass)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = -1

    def install(self):
        # Modules the package imports lazily (nffactor) are loaded first, so
        # that their names are rebound too.
        for mod in WRAPPED:
            importlib.import_module(f"curvetorsion.{mod}")
        mods = {name: mod for name, mod in sys.modules.items() if name.startswith("curvetorsion")}
        for mod, names in WRAPPED.items():
            module = mods[f"curvetorsion.{mod}"]
            for qual in names:
                span_name = f"{mod}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(span_name, getattr(cls, meth)))
                elif inspect.isclass(getattr(module, qual)):
                    cls = getattr(module, qual)
                    cls.__init__ = self._wrap(span_name, cls.__init__)
                else:
                    self._rebind(mods, getattr(module, qual), self._wrap(span_name, getattr(module, qual)))
        shear = mods["curvetorsion.curves"].draw_shear
        self._rebind(mods, shear, self._count_shears(shear))

    @staticmethod
    def _rebind(mods, original, replacement):
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sig = inspect.signature(fn)
        key_of, attrs_of = KEYS.get(name), ATTRS.get(name)
        bind = key_of is not None or attrs_of is not None

        def wrapper(*args, **kwargs):
            bound = None
            if bind:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            attrs = {"key": _digest(key_of(bound))} if key_of is not None else {}
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                attrs.update(attrs_of(bound, result))
            return result

        return wrapper

    def _count_shears(self, fn):
        spans, stack = self.spans, self.stack

        def counted(*args, **kwargs):
            if stack:
                top = spans[stack[-1]]
                if top[0] == "curves.intersect":
                    top[5]["shears"] = top[5].get("shears", 0) + 1
            return fn(*args, **kwargs)

        return counted


# ---------------------------------------------------------------------------
# Aggregation of one pass


def _share(num, den):
    return num / den if den else 0.0


def aggregate(spans, cpu_s, pass_s):
    """Per-layer metrics of one traced pass (without src_lines and overhead).

    A span whose call raised carries no result attributes, hence the defaults.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _req, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name = {}
    for i, (name, start, end, _p, _r, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append((end - start, end - start - child[i], attrs))

    m = {}
    mains = by_name.get("cli.main", [])
    for c in COMMANDS:
        durs = [d for d, _s, a in mains if a.get("command") == c]
        m[f"cli.{c}.p50_s"] = statistics.median(durs) if durs else 0.0
    m["worker.cpu_s"] = cpu_s
    self_total = 0.0
    for mod, names in WRAPPED.items():
        for fn in names:
            rows = by_name.get(f"{mod}.{fn}", [])
            m[f"{mod}.{fn}.calls"] = len(rows)
            m[f"{mod}.{fn}.self_s"] = sum(s for _d, s, _a in rows)
            self_total += m[f"{mod}.{fn}.self_s"]

    def total(name, attr):
        return sum(a.get(attr, 0) for _d, _s, a in by_name.get(name, []))

    smooth = by_name.get("curves.check_smooth", [])
    principal = by_name.get("picard.is_principal", [])
    m["curves.intersect.shear_retries"] = total("curves.intersect", "shears")
    m["curves.check_smooth.trials_used"] = total("curves.check_smooth", "trials")
    m["curves.check_smooth.smooth_share"] = _share(sum(a.get("smooth", False) for _d, _s, a in smooth), len(smooth))
    m["curves.local_param.order_sum"] = total("curves.local_param", "order")
    for name in REPEAT_KEYED:
        rows = by_name.get(name, [])
        m[f"{name}.repeat_share"] = 1.0 - _share(len({a["key"] for _d, _s, a in rows}), len(rows)) if rows else 0.0
    m["picard.is_principal.principal_share"] = _share(sum(a.get("principal", False) for _d, _s, a in principal), len(principal))
    m["picard.is_principal.kernel_dim_sum"] = total("picard.is_principal", "kernel_dim")
    m["picard.torsion_order.candidates_tested"] = total("picard.torsion_order", "tested")
    m["covers.relation_lattice.sweep_vectors"] = total("covers.relation_lattice", "sweep")
    m["trace.coverage_share"] = _share(self_total, pass_s)
    return m


def src_lines(root: Path):
    src = root / "src" / "curvetorsion"
    return {
        f"{m}.src_lines": len((src / f"{m}.py").read_text(encoding="utf-8").splitlines()) for m in MODULES
    }
