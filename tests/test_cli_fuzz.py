"""Fuzzing of the CLI error contract on damaged curve files.

Copies of two sample files are damaged one way each: a key is dropped, a
value's JSON type is swapped, a polynomial string is truncated, or a name
reference is broken.  `torsion` and `intersect` on the copy, and `certify`
on the copy of the one sample file with a number field, must exit 0, 2, 3 or
4, print no traceback, and let no exception leave `cli.main`.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from curvetorsion.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_curves"
# file -> the commands run on its damaged copies, without the file argument
SOURCES = {
    "fermat_artal_pair.json": (
        ("torsion", "collinear"),
        ("intersect", "E", "T1"),
        ("certify", "collinear", "noncollinear"),
    ),
    "tangent_quadruples.json": (("torsion", "equal-classes"), ("intersect", "E", "L11")),
}
ORIGINALS = {name: json.loads((SAMPLES / name).read_text()) for name in SOURCES}
OTHER_TYPE_VALUES = [None, True, 0, 2.5, "", "x", [], [1], {}, {"a": 1}]


def _paths(value, prefix=()):
    """Paths (tuples of keys and indices) to every value below the root."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _json_type(value):
    return type(value) if not isinstance(value, bool) else "bool"


def _drop_key(doc, draw):
    path = draw(st.sampled_from([p for p in _paths(doc) if isinstance(p[-1], str)]))
    del _parent(doc, path)[path[-1]]


def _swap_type(doc, draw):
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _parent(doc, path)[path[-1]]
    new = [v for v in OTHER_TYPE_VALUES if _json_type(v) is not _json_type(old)]
    _parent(doc, path)[path[-1]] = draw(st.sampled_from(new))


def _truncate_poly(doc, draw):
    polys = [p for p in _paths(doc) if p[-1] in ("poly", "min_poly")]
    path = draw(st.sampled_from(polys))
    text = _parent(doc, path)[path[-1]]
    _parent(doc, path)[path[-1]] = text[: draw(st.integers(0, len(text) - 1))]


def _break_name(doc, draw):
    refs = [
        p
        for p in _paths(doc)
        if (p[0] == "curves" and p[-1] == "name")
        or (p[0] == "decompositions" and (p[-1] in ("name", "smooth") or "parts" in p[:-1]))
    ]
    path = draw(st.sampled_from(refs))
    names = [c["name"] for c in doc["curves"]]
    _parent(doc, path)[path[-1]] = draw(st.sampled_from(["nosuch"] + names))


MUTATIONS = [_drop_key, _swap_type, _truncate_poly, _break_name]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SOURCES)), st.sampled_from(MUTATIONS), st.data())
def test_damaged_files_keep_the_exit_code_contract(source, mutate, data):
    doc = json.loads(json.dumps(ORIGINALS[source]))
    mutate(doc, data.draw)
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        for command, *names in SOURCES[source]:
            argv = [command, path, *names]
            code, err = run_cli(argv)
            assert code in (0, 2, 3, 4), (argv[0], code, err)
            assert "Traceback" not in err
    finally:
        os.unlink(path)
