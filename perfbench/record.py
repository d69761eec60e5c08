"""Run the benchmark on several seeds and record median and spread per metric.

Usage, from the root of a source checkout:

    python3 perfbench/record.py --runs 10 --out perfbench/records/NAME.json

Each run is a fresh ``perfbench/run.py`` process with its own seed (first
seed, first seed + 1, ...), one workload after another.  For every metric the
record holds the ten values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median, next
to the machine facts of the first run; ``--compare`` checks a second record's
medians against this one within the BENCHMARK.json bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def record(bench: dict, runs: int, first_seed: int, trace: int) -> dict:
    out = {"runs": runs, "first_seed": first_seed, "seconds": bench["run_seconds"],
           "trace": trace, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        correct = True
        attempted = failed = 0
        walls = []
        for seed in range(first_seed, first_seed + runs):
            report, result = run_once(workload, seed, bench["run_seconds"], trace)
            out.setdefault("machine", report["machine"])
            walls.append(report["wall_s"])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        out["workloads"][workload] = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "wall_s": summarize(walls),
            "metrics": {name: {"unit": units[name], **summarize(v)} for name, v in values.items()},
        }
    return out


def compare(bench: dict, first: dict, second: dict) -> list[str]:
    """Metrics whose spread exceeds a third of the bound, or whose second median is worse by more than the bound."""
    problems = []
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload, data in second["workloads"].items():
            a = first["workloads"][workload]["metrics"][name]
            b = data["metrics"][name]
            for rec in (a, b):
                if rec["spread"] > bound / 3:
                    problems.append(f"{workload} {name}: spread {rec['spread']:.3f} > bound/3")
            change = (b["median"] - a["median"]) / a["median"]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                problems.append(f"{workload} {name}: second median worse by {worse:.3f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--compare", help="an earlier record of the same code to check against")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = record(bench, args.runs, args.first_seed, args.trace)
    if args.compare:
        result["compared_with"] = args.compare
        result["problems"] = compare(bench, json.loads(Path(args.compare).read_text()), result)
        for line in result["problems"]:
            print("PROBLEM", line)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for workload, data in result["workloads"].items():
        for name, m in data["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:15s} {name:40s} median {m['median']:.6g} {m['unit']:10s} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
