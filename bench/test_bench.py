"""Self-tests of the benchmark: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_one_intersect_request_is_one_intersect_call(tmp_path):
    req = {
        "argv": ["intersect", str(ROOT / "sample_curves" / "fermat_artal_pair.json"), "E", "T1", "--json"],
        "extract": lambda rep: rep["results"]["bezout_total"],
        "expected": 3,
    }
    p = run.run_pass([req], True, tmp_path / "worker.log", 120.0)
    assert p["requests"][0]["ok"], p["requests"][0]["reason"]
    m = tracer.aggregate(p["spans"], p["cpu_s"], p["pass_s"])
    assert m["curves.intersect.calls"] == 1
    assert m["cli.main.calls"] == 1


def test_generator_is_deterministic(tmp_path):
    for workload in workloads.WORKLOADS:
        seeds = [workloads.program_seeds(workload, 7, i) for i in range(4)]
        assert seeds == [workloads.program_seeds(workload, 7, i) for i in range(4)]
        assert len({tuple(s) for s in seeds}) == 4
        dirs = [tmp_path / f"{workload}-{i}" for i in range(3)]
        for d, seed in zip(dirs, (7, 7, 8)):
            d.mkdir()
            workloads.generate_inputs(workload, seed, 0, ROOT, d)
        for name in workloads.SOURCES[workload]:
            same, other = ((d / name).read_bytes() for d in dirs[:2]), (dirs[2] / name).read_bytes()
            first, second = same
            assert first == second
            assert first != other


def test_tampered_answer_is_an_error(tmp_path):
    from curvetorsion import cli

    workloads.generate_inputs("cubic-arrangements", 3, 0, ROOT, tmp_path)
    reqs = workloads.requests("cubic-arrangements", workloads.program_seeds("cubic-arrangements", 3, 0), tmp_path, tmp_path, ROOT)
    req = next(r for r in reqs if r["argv"][0] == "torsion")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(req["argv"])
    assert workloads.check(req, code, out.getvalue())[0]

    report = json.loads(out.getvalue())
    report["results"]["orders"] = [3]
    tampered = json.dumps(report)
    ok, _, reason = workloads.check(req, code, tampered)
    assert not ok and "differ" in reason
    assert not workloads.check(req, 4, out.getvalue())[0]

    records = [{"ok": True}, {"ok": False}]
    passes = [{"setup_s": 0.4, "pass_s": 3.0, "speed": 1.0, "rss_mb": 60.0, "requests": records}]
    assert run.end_to_end([0.4], passes, 1.0)["success_rate"] == 0.5


@pytest.mark.xfail(strict=True, reason="program defect behind workloads.CONSTRUCT_SEEDS")
def test_construct_seed_outside_the_pool_succeeds(tmp_path):
    from curvetorsion import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["construct", "--recipe", "artal", "--out", str(tmp_path / "a.json"), "--seed", "558878", "--json"])
    assert code == 0


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_metrics()
