#!/usr/bin/env python3
"""Compare two result records written by run.py.

    python3 bench/compare.py bench/results/A.json bench/results/B.json

Refuses (exit 3) when the records come from different environments or
measure different workloads or modes; otherwise prints each metric of both
records with the ratio B / A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import environment  # noqa: E402


def compare(a: dict, b: dict) -> list:
    """Rows (metric, unit, value A, value B, B / A); raises ValueError for incomparable records."""
    differ = environment.mismatches(a["environment"], b["environment"])
    if differ:
        raise ValueError(f"environments differ in {', '.join(differ)}")
    for field in ("workload", "trace", "seconds"):
        if a[field] != b[field]:
            raise ValueError(f"records differ in {field}: {a[field]!r} vs {b[field]!r}")
    rows = []
    for name, ma in a["metrics"].items():
        vb = b["metrics"][name]["value"]
        ratio = vb / ma["value"] if ma["value"] else None
        rows.append((name, ma["unit"], ma["value"], vb, ratio))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    try:
        rows = compare(a, b)
    except ValueError as e:
        print(f"refusing to compare: {e}", file=sys.stderr)
        return 3
    for name, unit, va, vb, ratio in rows:
        shown = f"{ratio:.3f}" if ratio is not None else "-"
        print(f"{name:48s} {unit:6s} {va:14.6g} {vb:14.6g} {shown:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
