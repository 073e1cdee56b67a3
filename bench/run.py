#!/usr/bin/env python3
"""curvetorsion benchmark: seeded CLI workloads served by a fresh worker per pass.

    python3 bench/run.py --workload quartic-tuple --seed 1 --seconds 40 --trace 0

Run it from a checkout that holds ``src/curvetorsion`` and ``sample_curves``.
The seed picks the coordinate changes applied to the workload's curve files
and the program seeds (see ``workloads.py``); the program sees only the
generated files and ``--seed``.  One closed-loop client sends the workload's
requests one at a time to one single-threaded worker process, which runs
``curvetorsion.cli.main`` on each.  A pass is one worker process serving
the request lists of the workload's CASES_PER_PASS input cases once, so no
cache outlives a pass; each pass takes its own cases from the seed.  A run
makes at least the workload's minimum of passes and starts more until
``--seconds`` have run out.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median set-up time (spawn to ``import curvetorsion`` done), median pass
time, median peak RSS and the share of requests answered correctly.  Times
are scaled to a reference machine speed, which the worker samples on its own
CPU while the pass runs (see ``calibrate.py``); the raw times and the factors
are in the results record.  With
``--trace 1`` traced and untraced passes alternate; the traced ones give the
per-layer metrics (see ``tracer.py``) and the pair gives the tracing
overhead.  Every answer is checked against seed-independent reference
invariants.  The full record (environment, every request with its digest,
spans) goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
# Every run must end within 180 s; a worker still busy at this point is killed.
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import environment  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Extra spawns that only set up, so that setup_s is a median of enough samples.
SETUP_ONLY = 4

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB", "success_rate": "share"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer of the program)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing: set and dict order cannot differ between runs of one seed.
    env["PYTHONHASHSEED"] = "0"
    return env


def _send(proc, msg):
    proc.stdin.write(json.dumps(msg) + "\n")
    proc.stdin.flush()


def _receive(proc):
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited early with code {proc.wait()}")
    return json.loads(line)


def run_pass(reqs: list, traced: bool, log_path: Path, time_left: float) -> dict:
    """One worker process serving the request list once, checking every answer."""
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "1" if traced else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            cwd=ROOT,
            env=_worker_env(),
            text=True,
        )
        watchdog = threading.Timer(max(time_left, 1.0), proc.kill)
        watchdog.start()
        try:
            ready = _receive(proc)
            setup_s = time.perf_counter() - t0
            if not Path(ready["module"]).resolve().is_relative_to(ROOT / "src"):
                raise BenchError(f"worker imported curvetorsion from {ready['module']}, not from this checkout")
            records = []
            p0 = time.perf_counter()
            for i, req in enumerate(reqs):
                argv = req["argv"] if req["argv"] is not None else req["argv_from"]()
                r0 = time.perf_counter()
                _send(proc, {"id": i, "argv": argv})
                resp = _receive(proc)
                latency = time.perf_counter() - r0
                ok, invariants, reason = workloads.check(req, resp["code"], resp["out"])
                if resp["exc"]:
                    ok, reason = False, f"exception escaped main: {resp['exc']}"
                records.append(
                    {
                        "command": argv[0],
                        "argv": argv,
                        "latency_s": latency,
                        "code": resp["code"],
                        "ok": ok,
                        "reason": reason,
                        "stderr": resp["err"],
                        "invariants": invariants,
                        "digest": workloads.digest(invariants),
                    }
                )
            pass_s = time.perf_counter() - p0
            _send(proc, {"end": True})
            end = _receive(proc)
            proc.stdin.close()
            proc.wait(timeout=30)
        except BenchError as e:
            log.flush()
            detail = log_path.read_text(encoding="utf-8")[-3000:]
            raise BenchError(f"{e}\n{detail}") from None
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {
        "traced": traced,
        "setup_s": setup_s,
        "start": p0,
        "pass_s": pass_s,
        "total_s": time.perf_counter() - t0,
        "ready_rss_mb": ready["rss_mb"],
        "rss_mb": end["rss_mb"],
        "cpu_s": end["cpu_s"],
        "requests": records,
        "spans": end["spans"],
        "samples": end["samples"],
    }


def run_passes(args, work: Path, kill_at: float):
    """Set-up-only spawns, then the workload's minimum of passes and more until --seconds have run out.

    Pass i serves the workload's CASES_PER_PASS input cases from case
    i * CASES_PER_PASS on; in a traced run passes come in pairs, traced then
    untraced, on the same cases.  Each pass gets the speed factor of the
    kernel samples in its window, and its time without the kernel's.  Returns
    (set-up times, passes, median speed factor of the passes).
    """
    started = time.perf_counter()
    setups = [
        run_pass([], False, work / f"setup{i}.log", kill_at - time.perf_counter())["setup_s"]
        for i in range(0 if args.trace else SETUP_ONLY)
    ]
    passes = []
    cases = {}
    per_pass = workloads.CASES_PER_PASS[args.workload]
    while time.perf_counter() - started < args.seconds or len(passes) < workloads.MIN_PASSES[args.workload] or len(passes) % (1 + args.trace):
        i = len(passes)
        first = (i // 2 if args.trace else i) * per_pass
        pass_dir = work / f"pass{i}"
        reqs = []
        for index in range(first, first + per_pass):
            case_dir = work / f"case{index}"
            if index not in cases:
                case_dir.mkdir()
                cases[index] = {
                    "case": index,
                    "matrices": workloads.generate_inputs(args.workload, args.seed, index, ROOT, case_dir),
                    "program_seeds": workloads.program_seeds(args.workload, args.seed, index),
                }
            out_dir = pass_dir / f"case{index}"
            out_dir.mkdir(parents=True)
            reqs += workloads.requests(args.workload, cases[index]["program_seeds"], case_dir, out_dir, ROOT)
        traced = bool(args.trace) and i % 2 == 0
        p = run_pass(reqs, traced, work / f"worker{i}.log", kill_at - time.perf_counter())
        speed, kernel_s = calibrate.window(p["samples"], p["start"], p["start"] + p["pass_s"])
        p.update(cases=[cases[index] for index in range(first, first + per_pass)], speed=speed, kernel_s=kernel_s)
        p.update(wall_s=p["pass_s"], pass_s=p["pass_s"] - kernel_s)
        passes.append(p)
        shutil.rmtree(pass_dir)
    setups += [p["setup_s"] for p in passes]
    return setups, passes, statistics.median(p["speed"] for p in passes)


def tail(values):
    """The highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return {"samples": n, "percentile": None, "value": None}
    ordered = sorted(values)
    return {"samples": n, "percentile": (100 * (n - 10)) // n, "value": ordered[n - 11]}


def counts(passes):
    """(attempted, failed) requests over all passes."""
    attempted = sum(len(p["requests"]) for p in passes)
    return attempted, sum(not r["ok"] for p in passes for r in p["requests"])


def end_to_end(setups, passes, speed):
    """End-to-end metrics.

    Pass times are scaled by each pass's speed factor; set-up times, which
    come before the worker samples its speed, by the run's (``speed``).
    """
    attempted, failed = counts(passes)
    return {
        "setup_s": statistics.median(setups) * speed,
        "pass_s": statistics.median(p["pass_s"] * p["speed"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(passes):
    """Per-layer metrics; times are scaled by each traced pass's speed factor."""
    seconds = {name for name, unit, _better in tracer.per_layer_metrics() if unit == "s"}
    rows = []
    for p in passes:
        if p["traced"]:
            row = tracer.aggregate(p["spans"], p["cpu_s"], p["pass_s"])
            rows.append({k: v * p["speed"] if k in seconds else v for k, v in row.items()})
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics.update(tracer.src_lines(ROOT))
    # Pass 2j is traced and pass 2j+1 untraced on the same case.
    ratios = [t["pass_s"] * t["speed"] / (u["pass_s"] * u["speed"]) for t, u in zip(passes[::2], passes[1::2])]
    metrics["trace.overhead_share"] = statistics.median(ratios) - 1.0
    return metrics


def main(argv=None) -> int:
    kill_at = time.perf_counter() + RUN_LIMIT_S
    args = parse_args(argv)
    if not (ROOT / "src" / "curvetorsion" / "cli.py").is_file() or not (ROOT / "sample_curves").is_dir():
        print(f"bench: {ROOT} holds no curvetorsion checkout (src/curvetorsion, sample_curves)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = environment.record(ROOT)
    (BENCH / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work"))
    try:
        setups, passes, speed = run_passes(args, work, kill_at)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = counts(passes)
    if args.trace:
        units = {name: unit for name, unit, _b in tracer.per_layer_metrics()}
        values = per_layer(passes)
    else:
        units = END_TO_END_UNITS
        values = end_to_end(setups, passes, speed)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "speed_factor": speed,
        "setup_s": setups,
        "pass_s_tail": tail([p["pass_s"] * p["speed"] for p in passes if not p["traced"]]),
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        spans = [{"pass": i, "spans": p["spans"]} for i, p in enumerate(passes) if p["traced"]]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
