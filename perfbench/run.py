"""zmeasure benchmark: one seeded workload, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload kernel_tables --seed 1 --seconds 15 --trace 0

The benchmark imports zmeasure from the checkout's ``src`` directory, runs the
workload's ops back to back until ``--seconds`` of op time has been measured
(in whole rounds, so the mix of work is fixed), checks every output outside
the timed region, and prints two JSON lines.  The first holds the full report:
machine facts, every end-to-end metric under its workload-specific name, and
with ``--trace 1`` the per-layer table.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) of BENCHMARK.json.

With ``--trace 1`` rounds alternate between traced and untraced, each for
``--seconds`` of op time; the per-layer numbers come from the traced rounds
and the tracing overhead is the difference of the two op medians.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Pin BLAS/OpenMP pools before numpy is imported here or in a probe process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread pins)

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 9
REFERENCE_EVERY_S = 0.25  # op time between two timings of the reference loop
REFERENCE_LOOP = 40_000  # iterations; about 3 ms
REFERENCE_REPEATS = 3
MAX_FAILURE_NOTES = 5

# A fresh interpreter imports the CLI module and builds its parser, as every
# `zmeasure` invocation does; it prints the two times.
PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import zmeasure.cli
t1 = time.perf_counter()
zmeasure.cli.build_parser()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure per pass; 0 runs a single round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_zmeasure():
    """Import zmeasure from this checkout, never from an installed copy."""
    if not (SRC / "zmeasure" / "__init__.py").is_file():
        raise ImportError(f"no zmeasure sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zmeasure

    if Path(zmeasure.__file__).resolve().parent != (SRC / "zmeasure").resolve():
        raise ImportError(f"zmeasure was imported from {zmeasure.__file__}, not {SRC}")
    return zmeasure


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_probe() -> tuple[float, float]:
    """(import_s, parser_s) of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, parser_s = json.loads(proc.stdout.strip().splitlines()[-1])
    return import_s, parser_s


class SetupProbes:
    """Set-up probes taken at even marks of a run's op time, between ops.

    Set-up time follows the load on the host, which drifts over seconds; probes
    spread over the whole run give a median over the same stretch of time as
    the ops, where back-to-back probes would sample only its first seconds.
    """

    def __init__(self, seconds: float, count: int = SETUP_PROBES) -> None:
        self.marks = [seconds * i / count for i in range(count)]
        self.times: list[tuple[float, float]] = []

    def poll(self, busy: float) -> None:
        """Take every probe whose mark ``busy`` seconds of op time have reached."""
        while self.marks and busy >= self.marks[0]:
            self.marks.pop(0)
            self.times.append(setup_probe())

    def finish(self) -> list[tuple[float, float]]:
        self.poll(math.inf)
        return self.times


class SpeedReference:
    """Timings of a fixed pure-Python loop, taken between ops through the run.

    The host's speed drifts: on a 2-vCPU virtual machine the same loop took
    2.7 ms and 4.1 ms a minute apart, and zmeasure's ops (interpreted Python,
    mpmath, exact fractions) drift with it.  An op's latency divided by the
    mean of the loop timings taken just before and just after it is its cost
    in units of the loop (``ref``), which holds still while the whole host
    slows down or speeds up.
    The loop touches no zmeasure code, so a change to zmeasure moves the cost.
    """

    def __init__(self) -> None:
        self.times = [self.sample()]
        self.next_mark = REFERENCE_EVERY_S

    @staticmethod
    def sample() -> float:
        """Median of a few timings of the loop, in seconds."""
        runs = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            acc = 0
            for i in range(REFERENCE_LOOP):
                acc += i * i % 7
            runs.append(time.perf_counter() - start)
        return statistics.median(runs)

    def poll(self, busy: float) -> None:
        """Time the loop once ``busy`` seconds of op time have passed the next mark."""
        if busy >= self.next_mark:
            self.times.append(self.sample())
            self.next_mark = busy + REFERENCE_EVERY_S

    def costs(self, elapsed: list[float], segments: list[int]) -> list[float]:
        """Each op's latency in loop units; ``segments[i]`` is the timing taken before op i.

        Takes one last timing first, so the last ops have one after them.
        """
        self.times.append(self.sample())
        return [e / (0.5 * (self.times[j] + self.times[j + 1])) for e, j in zip(elapsed, segments)]


class Pass:
    """Latencies, work and failures of the ops run in one mode (traced or not)."""

    def __init__(self) -> None:
        self.elapsed: list[float] = []  # every op's latency, in order
        self.ok: list[bool] = []
        self.segments: list[int] = []  # per op: index of the reference timing taken before it
        self.latencies: list[float] = []  # latencies of the ops that succeeded
        self.by_label: dict[str, list[float]] = {}
        self.labels: list[str] = []
        self.busy = 0.0
        self.rss_mb: float | None = None  # peak RSS at the end of the workload's memory_rounds
        self.units = 0
        self.failed = 0
        self.raised: Counter[str] = Counter()  # exception type of each op whose call raised
        self.notes: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.labels)

    def run(self, op, tracer=None) -> None:
        self.labels.append(op.label)
        if tracer is not None:
            tracer.current_op = self.attempted
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            reason = f"{type(exc).__name__}: {exc}"
            self.raised[type(exc).__name__] += 1
        else:
            reason = None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
        self.busy += elapsed
        self.elapsed.append(elapsed)
        if reason is None:
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        self.ok.append(reason is None)
        if reason is None:
            self.latencies.append(elapsed)
            self.by_label.setdefault(op.label, []).append(elapsed)
            self.units += op.units
            return
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(f"{op.label}: {reason}")

    def run_rounds(self, workload, rounds, seconds: float, probes: SetupProbes, reference: SpeedReference) -> None:
        """Whole rounds until ``seconds`` of op time; at least one round."""
        done = 0
        while True:
            for op in next(rounds):
                self.segments.append(len(reference.times) - 1)
                self.run(op)
                probes.poll(self.busy)
                reference.poll(self.busy)
            done += 1
            if done == workload.memory_rounds:
                self.rss_mb = peak_rss_mb()
            if self.busy >= seconds:
                return

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if self.latencies else float("nan")


def layer_metrics(summary, tracer, traced: Pass, dimension_stats: tuple[int, int], cap: Pass | None) -> dict:
    """Per-layer metrics of the traced ops: counts and self times are per op."""
    ops = traced.attempted

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / ops

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0) / ops

    rows = sum(tracer.rows_by_op.values())
    f21 = summary.get("specfun.gauss_2f1_w", {}).get("calls", 0)
    hits, misses = dimension_stats
    out = {}
    for name in (
        "specfun.gauss_2f1_w", "specfun.whittaker_w", "specfun.loggamma",
        "kernels.rs", "kernels.psi", "kernels.pq", "kernels.hyper_kernel",
        "measures.mixed_measure", "measures.z_measure_n",
        "partitions.dimension", "partitions.enumerate_partitions",
        "sampling.sample_size", "sampling.sample_diagram",
        "verification.correlation_oracle",
    ):
        out[f"{name}.calls"] = (calls(name), "calls/op")
    for name in (
        "specfun.gauss_2f1_w", "specfun.whittaker_w", "specfun.loggamma",
        "kernels.hyper_kernel", "kernels.decay_certificate",
        "measures.mixed_measure", "measures.z_measure_n",
        "partitions.dimension", "partitions.enumerate_partitions", "partitions.to_configuration",
        "sampling.sample_size", "sampling.sample_diagram",
        "verification.correlation_oracle", "verification.correlation_det",
    ):
        out[f"{name}.self_s"] = (self_s(name), "s/op")
    out["kernels.function_table.builds"] = (calls("kernels.FunctionTable.build"), "builds/op")
    out["kernels.function_table.rows"] = (rows / ops, "rows/op")
    out["kernels.function_table.self_s"] = (
        self_s("kernels.FunctionTable.build") + self_s("kernels.function_table"), "s/op")
    out["kernels.f21_calls_per_row"] = (f21 / rows if rows else 0.0, "calls/row")
    out["partitions.dimension.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    size_cap = traced.raised["SizeCapError"] + (cap.raised["SizeCapError"] if cap else 0)
    out["sampling.size_cap_errors"] = (size_cap, "count")
    return out


def table_strata(tracer, traced: Pass) -> dict:
    """Table builds and 2F1 calls per built row, grouped by op label."""
    builds = tracer.calls_by_op("kernels.FunctionTable.build")
    f21 = tracer.calls_by_op("specfun.gauss_2f1_w")
    out = {}
    for op_id, label in enumerate(traced.labels, start=1):
        row = out.setdefault(label, {"ops": 0, "builds": 0, "rows": 0, "f21_calls": 0})
        row["ops"] += 1
        row["builds"] += builds[op_id]
        row["rows"] += tracer.rows_by_op[op_id]
        row["f21_calls"] += f21[op_id]
    return {label: row for label, row in sorted(out.items()) if row["rows"]}


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict, kind: str) -> None:
    """Write the report, print it, then print the result line with BENCHMARK.json's ``kind`` metrics."""
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]]
    report["wall_s"] = time.perf_counter() - STARTED
    OUT.mkdir(exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in declared},
    }))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(args, workload, rounds, report) -> None:
    plain = Pass()
    probes = SetupProbes(args.seconds)
    reference = SpeedReference()
    plain.run_rounds(workload, rounds, args.seconds, probes, reference)
    setup = [a + b for a, b in probes.finish()]
    costs = reference.costs(plain.elapsed, plain.segments)
    ok_costs = [c for c, ok in zip(costs, plain.ok) if ok]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ref": (statistics.median(ok_costs) if ok_costs else float("nan"), "ref"),
        "throughput_per_ref": (plain.units / sum(costs), "1/ref"),
        "peak_rss_mb": (plain.rss_mb or peak_rss_mb(), "MB"),
    }
    report["ops"] = plain.attempted
    report["setup_s_probes"] = setup
    report["reference_s"] = {"median": statistics.median(reference.times), "timings": len(reference.times)}
    report["failures"] = plain.notes
    named = dict(metrics)
    named["op_p50_s"] = (plain.percentile(50), "s")
    named[workload.throughput] = (plain.units / plain.busy, "1/s")
    if len(plain.latencies) >= 100:
        named["op_p90_s"] = (plain.percentile(90), "s")
    named["failed_ops_ratio"] = (plain.failed / plain.attempted, "ratio")
    report["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in named.items()}
    report["op_p50_s_by_label"] = {
        label: statistics.median(lat) for label, lat in sorted(plain.by_label.items())
    }
    emit(report, plain.failed == 0, plain.attempted, plain.failed, metrics, "end_to_end")


def run_traced(args, rounds, report, zmeasure, cap_ops) -> None:
    from tracer import Tracer

    tracer = Tracer()
    traced, plain = Pass(), Pass()
    probes = SetupProbes(2 * args.seconds)
    dimension = zmeasure.partitions.dimension  # the cached original, not the tracing wrapper
    hits = misses = 0
    while True:
        # Untraced rounds run with the wrappers removed, so the overhead is
        # measured against the code a user runs.
        before = dimension.cache_info()
        with tracer:
            for op in next(rounds):
                traced.run(op, tracer)
                probes.poll(traced.busy + plain.busy)
        after = dimension.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
        for op in next(rounds):
            plain.run(op)
            probes.poll(traced.busy + plain.busy)
        if traced.busy >= args.seconds and plain.busy >= args.seconds:
            break
    setup = probes.finish()
    cap = None
    if cap_ops:
        cap = Pass()
        for op in cap_ops:
            cap.run(op)
    summary = tracer.summary()
    layers = layer_metrics(summary, tracer, traced, (hits, misses), cap)
    layers["cli.import_s"] = (statistics.median(a for a, _ in setup), "s")
    layers["cli.parser_s"] = (statistics.median(b for _, b in setup), "s")
    layers["trace.overhead_s"] = (traced.percentile(50) - plain.percentile(50), "s")
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    attempted = traced.attempted + plain.attempted
    failed = traced.failed + plain.failed
    report["ops"] = {"traced": traced.attempted, "untraced": plain.attempted}
    report["failed_ops_ratio"] = failed / attempted
    report["failures"] = traced.notes + plain.notes
    if cap is not None:
        report["cap_region"] = {
            "attempted": cap.attempted,
            "failed_ops_ratio": cap.failed / cap.attempted,
            "failures": cap.notes,
        }
    report["op_p50_s"] = {"traced": traced.percentile(50), "untraced": plain.percentile(50)}
    report["per_layer"] = {k: v for k, (v, _) in layers.items()}
    report["table_builds_by_label"] = table_strata(tracer, traced)
    report["spans"] = {name: s for name, s in sorted(summary.items()) if s["calls"]}
    emit(report, failed == 0, attempted, failed, layers, "per_layer")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        zmeasure = import_zmeasure()
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from workloads import WORKLOADS, cap_region
    except ImportError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    index = sorted(WORKLOADS).index(args.workload)
    rounds = workload.rounds(np.random.default_rng([args.seed, index]))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "zmeasure": zmeasure.__version__,
    }
    if args.trace:
        cap_rng = np.random.default_rng([args.seed, len(WORKLOADS)])
        cap_ops = cap_region(cap_rng) if args.workload == "sampler" else []
        run_traced(args, rounds, report, zmeasure, cap_ops)
    else:
        run_plain(args, workload, rounds, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
