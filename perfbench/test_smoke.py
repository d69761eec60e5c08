"""Smoke test of the benchmark itself: every workload at minimum size.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
THROUGHPUT = {
    "kernel_tables": "blocks_per_s",
    "scaling_points": "points_per_s",
    "oracle": "minors_per_s",
    "sampler": "draws_per_s",
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    report = json.loads(report_line)["report"]
    assert report["machine"]["nproc"] >= 1 and report["seed"] == 3
    if trace:
        assert report["per_layer"]["cli.import_s"] > 0
        if workload == "kernel_tables":
            assert report["table_builds_by_label"]
        if workload == "sampler":
            cap = report["cap_region"]
            assert cap["attempted"] == 9
            # At this seed no traced op fails, so every size-cap error is a failed cap-region op.
            size_cap = report["per_layer"]["sampling.size_cap_errors"]
            assert size_cap == round(cap["failed_ops_ratio"] * cap["attempted"]) > 0
    else:
        named = report["metrics"]
        assert {"setup_s", "op_p50_s", "failed_ops_ratio", "peak_rss_mb", THROUGHPUT[workload]} <= set(named)
        assert all(m["unit"] for m in named.values())
        assert ("op_p90_s" in named) == (report["ops"] >= 100)


def test_known_failing_sampler_op_is_counted_not_fatal():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import zmeasure as zm
    from run import Pass
    from workloads import Op

    gp = zm.GrandParams(zm.ZParams(0.5, 1.0 / 3.0), 0.9)
    ok = zm.GrandParams(zm.ZParams(0.5, 1.0 / 3.0), 0.3)
    runner = Pass()
    runner.run(Op("cap", lambda: zm.sample_batch(gp, 1000, 7), lambda res: None, 1000))
    runner.run(Op("fine", lambda: zm.sample_batch(ok, 1000, 7), lambda res: None, 1000))
    assert (runner.attempted, runner.failed, runner.units) == (2, 1, 1000)
    assert "SizeCapError" in runner.notes[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("sampler", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
