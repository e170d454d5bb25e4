"""Benchmark runner: run one workload as a series of fresh-interpreter
sessions, then print its metrics.

    python3 perfbench/run.py --workload paper-exhibits --seed 1 \
        --seconds 20 --trace 0

Each session (perfbench/session.py) sets up in a new interpreter,
which is what ``setup_s`` times, runs one slice of the workload and
checks every output. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced sessions and prints the
per-layer metrics, writing the merged span table to
``.perfbench-work/trace-<workload>.json``. The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import REFERENCE_MS, WORKLOADS, median, percentile  # noqa: E402

SESSION = os.path.join(ROOT, "perfbench", "session.py")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
#: the program and its oracle must be in the checkout.
REQUIRED = ("src/repro/__init__.py", "benchmarks/results/fig01.txt")
#: sessions per run: two per 6.5 s of ``--seconds`` (6 at 20 s). The
#: count is fixed, not "until time is up", so the inputs a run measures
#: never depend on how fast the host is; it is even, so a sweep run
#: covers each of session.SWEEP_SEEDS equally and a traced run is whole
#: untraced/traced pairs.
SESSION_PAIR_S = 6.5
#: a hung session is killed so that the whole run ends within this.
RUN_LIMIT_S = 170.0
#: workloads whose cold/warm op is a pass over items (exhibits, sweep
#: variants); the service's is one job of its mix.
PASS_WORKLOADS = ("paper-exhibits", "sweep-incremental")

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cold_ms", "ms", "lower"),
    ("warm_ms", "ms", "lower"),
    ("query_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``),
#: normalised per op of the workload (common.WORKLOADS).
PER_LAYER = tuple(
    (name, unit, "higher" if name == "cache.load.hits" else "lower")
    for name, unit in (
        ("des.run.calls", "count/op"),
        ("des.run.self_s", "s/op"),
        ("trainer.run_trial.calls", "count/op"),
        ("hpo.next_batch.calls", "count/op"),
        ("hpo.next_batch.self_s", "s/op"),
        ("hpo.report.calls", "count/op"),
        ("spec.rng_for.calls", "count/op"),
        ("spec.rng_for.self_s", "s/op"),
        ("spec.stable_seed.calls", "count/op"),
        ("noise.noise_block.calls", "count/op"),
        ("noise.noise_matrix.calls", "count/op"),
        ("perfmodel.epoch_cost.self_s", "s/op"),
        ("perfmodel.epoch_cost_batch.self_s", "s/op"),
        ("accuracy.accuracy_at_epoch.self_s", "s/op"),
        ("pmu.final_counts.calls", "count/op"),
        ("pmu.final_counts.self_s", "s/op"),
        ("pmu.read_interval.self_s", "s/op"),
        ("profiler.profile_epoch.calls", "count/op"),
        ("profiler.profile_epoch.self_s", "s/op"),
        ("pipetune.warm_start.calls", "count/op"),
        ("pipetune.warm_start.self_s", "s/op"),
        ("groundtruth.query.calls", "count/op"),
        ("groundtruth.query.self_s", "s/op"),
        ("clustering.kmeans_fit.self_s", "s/op"),
        ("scheduler.run_multi_tenancy.calls", "count/op"),
        ("scheduler.run_multi_tenancy.self_s", "s/op"),
        ("runner.plan.self_s", "s/op"),
        ("runner.execute.self_s", "s/op"),
        ("runner.collect.self_s", "s/op"),
        ("backends.run_step.calls", "count/op"),
        ("backends.run_step.self_s", "s/op"),
        ("merge.merge_outcomes.self_s", "s/op"),
        ("cache.load.hits", "count/op"),
        ("cache.load.misses", "count/op"),
        ("cache.load.self_s", "s/op"),
        ("cache.store.calls", "count/op"),
        ("cache.store.self_s", "s/op"),
        ("cache.chain_key.self_s", "s/op"),
        ("tsdb.write.calls", "count/op"),
        ("tsdb.write.self_s", "s/op"),
        ("tsdb.aggregate_windows.calls", "count/op"),
        ("golden.render_result.calls", "count/op"),
        ("golden.render_result.self_s", "s/op"),
        ("service.handle.calls", "count/op"),
        ("service.handle.self_s", "s/op"),
        ("service.status.2xx", "count/op"),
        ("service.status.409", "count/op"),
        ("service.status.429", "count/op"),
        ("service.status.503", "count/op"),
        ("service.status.5xx", "count/op"),
        ("service.queue_wait_p50_ms", "ms"),
        ("service.job_run_p50_ms", "ms"),
        ("trace.overhead_share", "ratio"),
        ("trace.unattributed_share", "ratio"),
    )
)


def run_session(
    args, number: int, traced: bool, seconds: float, run_dir: str, timeout: float
):
    """One child session -> its report dict, or None if it broke.

    A session's inputs come from the run's seed and its index; in a
    traced run, each untraced/traced pair shares its index and so its
    inputs."""
    index = number // 2 if args.trace else number
    workdir = os.path.join(run_dir, f"session-{number}")
    os.makedirs(workdir)
    env = dict(os.environ)
    # one string-hash layout for every session: per-process dict layout
    # otherwise adds run-to-run noise; outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), env.get("PYTHONPATH")))
    )
    command = [
        sys.executable,
        SESSION,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--index", str(index),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--workdir", workdir,
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    try:
        child = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"[perfbench] session {number} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(
            f"[perfbench] session {number} exited {child.returncode}",
            file=sys.stderr,
        )
        return None
    return json.loads(lines[-1])


def run_sessions(args, run_dir: str) -> List[Dict]:
    """A fixed number of sessions. The serial workloads' sessions are
    fixed-size; the service's run for an equal slice of ``--seconds``."""
    reports: List[Dict] = []
    started = time.monotonic()
    count = 2 * max(1, round(args.seconds / SESSION_PAIR_S))
    slice_s = args.seconds / count if args.workload == "service-closed-loop" else 0.0
    for number in range(count):
        traced = bool(args.trace) and number % 2 == 1
        timeout = RUN_LIMIT_S - (time.monotonic() - started)
        reports.append(run_session(args, number, traced, slice_s, run_dir, timeout))
    return reports


def pooled(reports: List[Dict], field: str) -> Dict[str, List[float]]:
    """item -> every sample of it over the run's sessions."""
    items: Dict[str, List[float]] = {}
    for report in reports:
        for item, samples in report[field].items():
            items.setdefault(item, []).extend(samples)
    return items


def composed(reports: List[Dict], field: str, total: bool) -> float:
    """One op's latency from the lower quartile of each item's samples:
    a pass sums its items (exhibits, sweep variants); a service job or
    a query averages over its kinds. On a shared host, interference only
    ever adds time, so the lower quartile tracks the program's own cost
    and spreads less across runs than the median. Estimating each item
    on its own keeps a shift in a session's mix from moving the whole."""
    quartiles = [percentile(s, 25) for s in pooled(reports, field).values()]
    return sum(quartiles) if total else sum(quartiles) / len(quartiles)


def end_to_end(workload: str, reports: List[Dict]) -> Dict[str, float]:
    serial = workload in PASS_WORKLOADS
    cold = composed(reports, "cold_ms", serial)
    warm = composed(reports, "warm_ms", serial)
    if serial:
        # a session's ops are one cold and one warm pass, run back to back
        ops_per_s = median([r["ops"] for r in reports]) / ((cold + warm) / 1000)
    else:
        ops_per_s = median([r["ops"] / r["busy_s"] for r in reports])
    return {
        "setup_s": percentile([report["setup_s"] for report in reports], 25),
        "cold_ms": cold,
        "warm_ms": warm,
        "query_ms": composed(reports, "query_ms", False),
        "ops_per_s": ops_per_s,
        "peak_rss_mb": median([report["rss_mb"] for report in reports]),
    }


def per_layer(workload: str, reports: List[Dict]) -> Dict[str, float]:
    traced = [report for report in reports if report["traced"]]
    plain = [report for report in reports if not report["traced"]]
    ops = sum(report["ops"] for report in traced)
    totals: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for report in traced:
        for name, entry in report["trace"]["totals"].items():
            merged = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            merged["calls"] += entry["calls"]
            merged["self_s"] += entry["self_s"]
        for name, value in report["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + value
    values: Dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        target, _, field = name.rpartition(".")
        if name in counters:
            values[name] = counters[name] / ops
        elif field in ("calls", "self_s"):
            values[name] = totals.get(target, {}).get(field, 0) / ops
        else:
            values[name] = 0.0
    for name, field in (
        ("service.queue_wait_p50_ms", "queue_wait_ms"),
        ("service.job_run_p50_ms", "job_run_ms"),
    ):
        samples = [value for report in traced for value in report[field]]
        values[name] = median(samples) if samples else 0.0
    total = workload in PASS_WORKLOADS
    traced_wall = composed(traced, "cold_ms", total)
    values["trace.overhead_share"] = traced_wall / composed(plain, "cold_ms", total) - 1
    root_s = sum(report["trace"]["root_s"] for report in traced)
    root_self_s = sum(report["trace"]["root_self_s"] for report in traced)
    values["trace.unattributed_share"] = root_self_s / root_s
    return values


def write_trace(workload: str, reports: List[Dict]) -> str:
    """Merged (parent, span) edge table of the traced sessions."""
    edges: Dict[tuple, List[float]] = {}
    for report in reports:
        if report["traced"]:
            for parent, name, calls, total, own in report["trace"]["edges"]:
                entry = edges.setdefault((parent, name), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
    path = os.path.join(WORKDIR, f"trace-{workload}.json")
    rows = [
        {"parent": parent, "span": name, "calls": c, "total_s": t, "self_s": s}
        for (parent, name), (c, t, s) in sorted(
            edges.items(), key=lambda item: -item[1][1]
        )
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
    return path


def report_lines(workload: str, reports: List[Dict]) -> List[str]:
    """The user-facing names of this workload's metrics, for people."""
    lines = []
    total = workload in PASS_WORKLOADS
    cold = composed(reports, "cold_ms", total) / 1000
    warm = composed(reports, "warm_ms", total) / 1000
    if workload == "paper-exhibits":
        lines.append(f"exhibit_pass_s          {cold:.4f} s  (cold)")
        lines.append(f"exhibit_warm_pass_s     {warm:.4f} s")
    elif workload == "sweep-incremental":
        lines.append(f"sweep_cold_s            {cold:.4f} s")
        lines.append(f"sweep_warm_s            {warm:.4f} s")
    else:
        jobs = [v for r in reports for v in r["job_ms"]]
        queries = [v for vs in pooled(reports, "query_ms").values() for v in vs]
        busy = sum(r["busy_s"] for r in reports)
        lines.append(f"jobs_per_s              {len(jobs) / busy:.3f} 1/s")
        for label, values in (("job_latency", jobs), ("request_latency", queries)):
            for q in (50, 90):
                lines.append(
                    f"{label}_p{q}_ms{' ' * (18 - len(label))}"
                    f"{percentile(values, q):.3f} ms  (n={len(values)})"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(
            f"perfbench: run from a checkout of the repository; missing {missing}",
            file=sys.stderr,
        )
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        reports = run_sessions(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    broken = reports.count(None)
    reports = [report for report in reports if report is not None]
    if not reports:
        print("perfbench: every session failed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports) + broken
    failed = sum(r["failed"] for r in reports) + broken

    if args.trace:
        values = per_layer(args.workload, reports)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"span table: {write_trace(args.workload, reports)}")
    else:
        values = end_to_end(args.workload, reports)
        units = {name: unit for name, unit, _ in END_TO_END}
        for line in report_lines(args.workload, reports):
            print(line)
    print(
        f"{args.workload}: {len(reports)} sessions, seed {args.seed}, "
        f"{failed}/{attempted} operations failed "
        f"(error_rate {failed / attempted:.4f}); one op = "
        f"{WORKLOADS[args.workload]}"
    )
    kernel = median([ms for report in reports for ms in report["kernel_ms"]])
    print(
        f"host speed: kernel median {kernel:.3f} ms; timings are at the "
        f"reference {REFERENCE_MS} ms (perfbench/README.md)"
    )
    for name, value in values.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
