#!/usr/bin/env python3
"""Digest the answers of every applicable CLI command on the sample curves.

Runs each applicable ``intersect``, ``torsion``, ``splitting``, ``group``,
``certify``, ``certify-all`` and ``verify-type`` on the files in
``sample_curves/`` at seeds 0 and 5, and records for each report its exit
code and a sha256 of its ``results`` (timings and input paths are left out).

    PYTHONPATH=src python scripts/answer_digests.py --out scripts/answer_digests.json
    PYTHONPATH=src python scripts/answer_digests.py --check scripts/answer_digests.json

With ``--check`` the run is compared against a committed digest file and the
script exits 1 on any difference.  Regenerate that file only when an answer
is meant to change, and say why in the change that does it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

from curvetorsion.cli import main as cli_main

SEEDS = (0, 5)


def invocations(sample_dir):
    """(key, argv) for every applicable command, in a fixed order."""
    out = []
    for path in sorted(Path(sample_dir).glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "curves" not in data:
            continue  # summary.json is not a curve file
        f = str(path)
        decs = data.get("decompositions", [])
        pairs = []
        for dec in decs:
            pairs += [(dec["smooth"], c) for part in dec["parts"] for c in part]
        typed = [(tp["d"], tp["c"]) for tp in data.get("typed_pairs", [])]
        cmds = [("intersect", d, c) for d, c in dict.fromkeys(pairs + typed)]
        for dec in decs:
            cmds += [(cmd, dec["name"]) for cmd in ("torsion", "splitting", "group")]
        for i, a in enumerate(decs):
            cmds += [("certify", a["name"], b["name"]) for b in decs[i + 1:]]
        if len(decs) > 1:
            cmds.append(("certify-all",))
        cmds += [("verify-type", d, c) for d, c in typed]
        for seed in SEEDS:
            for cmd, *args in cmds:
                key = " ".join([cmd, path.name, *args, f"--seed {seed}"])
                out.append((key, [cmd, f, *args, "--seed", str(seed), "--json"]))
    return out


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    text = buf.getvalue()
    results = json.loads(text)["results"] if text.strip() else None
    blob = json.dumps(results, sort_keys=True).encode("utf-8")
    return {"exit": code, "results_sha256": hashlib.sha256(blob).hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--samples", default="sample_curves", help="directory of curve files")
    ap.add_argument("--out", help="write the digests to this JSON file")
    ap.add_argument("--check", help="compare against this digest file; exit 1 on a difference")
    args = ap.parse_args(argv)
    t0 = time.time()
    got = {key: digest(cmd) for key, cmd in invocations(args.samples)}
    print(f"{len(got)} reports digested in {time.time() - t0:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(got, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if args.check:
        want = json.loads(Path(args.check).read_text(encoding="utf-8"))
        bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        for k in bad:
            print(f"DIFFERS: {k}: expected {want.get(k)}, got {got.get(k)}")
        if bad:
            return 1
        print(f"all {len(want)} digests match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
