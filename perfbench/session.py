"""One benchmark session: set up in a fresh interpreter, run one slice of
a workload, check every output, report.

run.py starts this as a child process::

    python3 perfbench/session.py --workload paper-exhibits --seed 1 \
        --index 0 --seconds 5 --trace 0 --workdir <empty dir> \
        --spawned-at <monotonic>

and reads one JSON report from the last stdout line. Failed checks are
logged on stderr with their workload, operation and diff head; they
are counted, never retried and never abort the session.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import http.client
import json
import os
import random
import resource
import socket
import struct
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spans  # noqa: E402
from perfbench.common import (  # noqa: E402
    REFERENCE_MS,
    WORKLOADS,
    diff_head,
    log_failure,
    median,
)

#: query repeats per session (describe all exhibits; compare a sweep).
QUERY_REPEATS = 20
SWEEPS = ("arrival-rate", "fault-intensity")
#: sweep seeds; session ``index`` of a run with ``--seed`` runs
#: ``SWEEP_SEEDS[(seed + index) % 2]``, so every run of an even number
#: of sessions measures the same inputs, the seed setting their order.
SWEEP_SEEDS = (0, 1)
#: service jobs: the paper and hostile-world exhibits a client submits,
#: each at its canonical (scale, seed) so the golden is the oracle.
JOB_MIX = ("fig03", "fig09", "table2", "spot-market-lenet", "churn-and-crashes")
POLL_S = 0.010
#: the service load runs in rounds of about this long, with the host's
#: speed timed between them while the daemon is idle.
ROUND_S = 1.0
#: SO_LINGER on, 0 s: close() resets instead of entering TIME_WAIT.
_ABORT_ON_CLOSE = struct.pack("ii", 1, 0)
#: One job thread. Two threads (the stock QueueConfig) can return wrong
#: bytes for concurrent serial jobs; see README.md, "Known failure".
JOB_THREADS = 1
#: the stock chain in stock order; the bucket and the quota are sized
#: so the paced closed loop (<= ~500 requests/s per tenant) is never
#: refused, which the stock 20-burst 10/s bucket would do.
SERVER_CONFIG = {
    "host": "127.0.0.1",
    "port": 0,
    "queue": {"workers": JOB_THREADS, "capacity": 64},
    "middleware": [
        {"kind": "request_id"},
        {"kind": "access_log"},
        {"kind": "timing"},
        {"kind": "rate_limit", "capacity": 2000.0, "refill_per_s": 2000.0},
        {"kind": "quota", "max_in_flight": 4},
    ],
}


def time_kernel() -> float:
    """One timed run of a fixed kernel of the benchmark's own code: heap
    and dict work like the DES core's, then small-array numpy calls like
    the performance models'. No program code runs in it, so only the
    host's speed moves it."""
    import numpy as np  # after main() has pinned the CPU

    started = time.perf_counter()
    heap: List[int] = []
    counts: Dict[int, int] = {}
    for i in range(6000):
        heapq.heappush(heap, (i * 7919) % 1013)
        counts[i % 97] = counts.get(i % 97, 0) + 1
    while heap:
        heapq.heappop(heap)
    values = np.arange(64.0)
    for _ in range(600):
        values = np.sqrt(values * 1.0001 + 1.0)
    return 1000.0 * (time.perf_counter() - started)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


class Session:
    """Samples, counts and checks of one session."""

    def __init__(
        self, workload: str, seed: int, index: int, seconds: float, workdir: str
    ):
        self.workload = workload
        self.seed = seed
        self.index = index
        self.seconds = seconds
        self.workdir = workdir
        self.tracer: Optional[spans.Tracer] = None
        #: item (exhibit, sweep variant, job scenario, query kind) ->
        #: latencies in ms.
        self.cold_ms: Dict[str, List[float]] = {}
        self.warm_ms: Dict[str, List[float]] = {}
        self.query_ms: Dict[str, List[float]] = {}
        self.job_ms: List[float] = []
        self.queue_wait_ms: List[float] = []
        self.job_run_ms: List[float] = []
        #: every host-speed kernel time of the session, in order.
        self.kernel_ms: List[float] = []
        self.ops = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def check(self, operation: str, ok: bool, detail: Callable[[], str]) -> bool:
        """Count one attempted operation; log it when it failed."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
        if not ok:
            log_failure(self.workload, operation, detail())
        return ok

    def sample(self, items: Dict[str, List[float]], item: str, ms: float) -> None:
        with self._lock:
            items.setdefault(item, []).append(ms)

    def append(self, field: str, value: float) -> None:
        with self._lock:
            getattr(self, field).append(value)

    def root(self, name: str):
        """A root span when traced (its self time is unattributed)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def kernel(self) -> float:
        """Time the host-speed kernel now; -> its ms."""
        ms = time_kernel()
        self.kernel_ms.append(ms)
        return ms

    @staticmethod
    def scale(before: float, after: float) -> float:
        """The factor that puts a time measured between the kernel times
        ``before`` and ``after`` at reference speed: REFERENCE_MS over
        their mean."""
        return 2.0 * REFERENCE_MS / (before + after)

    def steady_kernel(self) -> float:
        """The median of three kernel times taken now, where one alone
        would rescale many samples."""
        return median([self.kernel() for _ in range(3)])

    def timed(self, items: Dict[str, List[float]], item: str, root: str, fn):
        """``fn()`` in a root span, its time sampled at reference speed
        under ``item``. -> ``fn()``'s result."""
        before = self.kernel_ms[-1]
        started = time.perf_counter()
        with self.root(root):
            result = fn()
        elapsed = time.perf_counter() - started
        scale = self.scale(before, self.kernel())
        self.sample(items, item, 1000.0 * elapsed * scale)
        return result


# ---------------------------------------------------------------------------
# paper-exhibits
# ---------------------------------------------------------------------------


class Exhibits:
    """All 15 committed exhibits at their canonical (scale, seed): a cold
    pass in this fresh interpreter, then a warm pass, then describe
    queries. Every render is byte-diffed against its golden."""

    def __init__(self, session: Session):
        from repro.experiments import EXHIBIT_RUNS, golden
        from repro.scenarios.registry import get_definition
        from repro.scenarios.views import scenario_describe_payload

        self.session = session
        self.runs = EXHIBIT_RUNS
        self.golden = golden  # render through the module: traced runs patch it
        self.describe = scenario_describe_payload
        self.definitions = {name: get_definition(name) for name in EXHIBIT_RUNS}
        self.goldens = {
            name: _read(golden.committed_path(name)) for name in EXHIBIT_RUNS
        }

    def run(self) -> None:
        s = self.session
        for label, items in (("cold", s.cold_ms), ("warm", s.warm_ms)):
            gc.collect()  # each timed pass starts without inherited garbage
            renders = [
                (
                    name,
                    s.timed(
                        items,
                        name,
                        "bench.pass",
                        lambda run=run: self.golden.render_result(run.run()),
                    ),
                )
                for name, run in self.runs.items()
            ]
            s.ops += len(renders)
            for name, text in renders:
                golden = self.goldens[name]
                s.check(
                    f"{label} pass: {name} vs golden",
                    text == golden,
                    lambda g=golden, t=text: diff_head(g, t),
                )
        gc.collect()
        for _ in range(QUERY_REPEATS):
            payloads = s.timed(
                s.query_ms,
                "describe",
                "bench.query",
                lambda: [
                    self.describe(self.definitions[name], run.scale, run.seed)
                    for name, run in self.runs.items()
                ],
            )
            empty = [p["scenario"]["name"] for p in payloads if not p["plan"]["steps"]]
            s.check(
                "describe all exhibits", not empty, lambda e=empty: f"no steps: {e}"
            )


# ---------------------------------------------------------------------------
# sweep-incremental
# ---------------------------------------------------------------------------


class Sweeps:
    """The arrival-rate and fault-intensity sweeps at scale 1.0: cold into
    a fresh cache dir, then warm, each persisted like ``repro sweep run
    --cache``; then ``sweep compare`` of the two persisted runs."""

    def __init__(self, session: Session):
        from repro.scenarios.cache import SweepRunStore, compare_sweep_runs
        from repro.scenarios.sweep import get_sweep, run_sweep

        self.session = session
        self.run_sweep = run_sweep
        self.compare = compare_sweep_runs
        self.cache_dir = os.path.join(session.workdir, "cache")
        self.store = SweepRunStore(self.cache_dir)
        self.sweeps = [get_sweep(name) for name in SWEEPS]
        self.seed = SWEEP_SEEDS[(session.seed + session.index) % len(SWEEP_SEEDS)]

    def _pass(self, items: Dict[str, List[float]]):
        s = self.session
        gc.collect()  # each timed pass starts without inherited garbage
        outcomes = []
        before = s.steady_kernel()
        for sweep in self.sweeps:
            started = time.perf_counter()
            with s.root("bench.pass"):
                outcome = self.run_sweep(
                    sweep, scale=1.0, seed=self.seed, cache_dir=self.cache_dir
                )
                self.store.save(outcome)
            elapsed = time.perf_counter() - started
            # one factor for many variants: from steadier kernel times
            after = s.steady_kernel()
            scale = s.scale(before, after)
            before = after
            for variant in outcome.outcomes:
                s.sample(items, variant.name, 1000.0 * variant.elapsed_s * scale)
            # validation, fan-out and TSDB persistence around the variants
            rest = elapsed - sum(variant.elapsed_s for variant in outcome.outcomes)
            s.sample(items, f"{sweep.name} (overhead)", 1000.0 * rest * scale)
            s.ops += len(outcome.outcomes)
            outcomes.append(outcome)
        return outcomes

    @staticmethod
    def _tables(outcome) -> Dict[str, str]:
        return {v.name: v.result.format_table() for v in outcome.outcomes if v.ok}

    def run(self) -> None:
        s = self.session
        cold = self._pass(s.cold_ms)
        warm = self._pass(s.warm_ms)
        for before, after in zip(cold, warm):
            name = before.sweep.name
            failed = [v.name for v in before.failed]
            s.check(
                f"cold sweep {name}",
                not failed and before.cache_hits == 0 and before.cache_misses > 0,
                lambda b=before, f=failed: (
                    f"failed variants {f}; hits={b.cache_hits} misses={b.cache_misses}"
                ),
            )
            cold_tables, warm_tables = self._tables(before), self._tables(after)
            s.check(
                f"warm sweep {name}",
                after.cache_misses == 0
                and after.cache_hits == before.cache_misses
                and warm_tables == cold_tables,
                lambda b=before, a=after, c=cold_tables, w=warm_tables: (
                    f"hits={a.cache_hits} misses={a.cache_misses} "
                    f"(cold misses={b.cache_misses})\n"
                    + "".join(
                        diff_head(c.get(k, ""), w.get(k, ""))
                        for k in sorted(set(c) | set(w))
                        if c.get(k) != w.get(k)
                    )
                ),
            )
        gc.collect()
        for sweep in self.sweeps * QUERY_REPEATS:
            comparison = s.timed(
                s.query_ms,
                sweep.name,
                "bench.query",
                lambda sweep=sweep: self.compare(self.store, sweep.name),
            )
            s.check(
                f"sweep compare {sweep.name}",
                comparison["identical"],
                lambda c=comparison: json.dumps(
                    [row for row in c["rows"] if not row["identical"]][:3]
                ),
            )


# ---------------------------------------------------------------------------
# service-closed-loop
# ---------------------------------------------------------------------------


class Client:
    """One tenant's closed loop: submit, poll, fetch, byte-diff, list."""

    def __init__(self, service: "Service", tenant: str, order: List[str]):
        self.service = service
        self.tenant = tenant
        self.order = order
        self.requests = 0
        self.jobs_started = 0

    def request(self, method: str, path: str, body=None):
        """-> (status, envelope, seconds); status 0 on a transport error.

        One connection per request, like the repo's ``ServiceClient``
        (urllib): on a kept-alive connection every response waits ~40 ms,
        because the server writes headers and body in two sends and
        Nagle's algorithm holds the body until the client's delayed ACK
        (see README.md). The client closes with a reset (zero linger)
        once it has the whole response: an orderly close would leave
        tens of thousands of ports in TIME_WAIT per minute of closed
        loop, which slows every later connect."""
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {
            "X-Tenant": self.tenant,
            "Content-Type": "application/json",
            "Connection": "close",
        }
        self.requests += 1
        started = time.perf_counter()
        conn = http.client.HTTPConnection(*self.service.address, timeout=60)
        try:
            conn.connect()
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT_ON_CLOSE)
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            status = response.status
        except (OSError, http.client.HTTPException, ValueError) as error:
            status, payload = 0, {"error": repr(error)}
        finally:
            conn.close()
        return status, payload, time.perf_counter() - started

    def refused(self, operation: str, status: int, payload) -> None:
        self.service.session.check(
            f"{self.tenant} {operation}", False, lambda: f"HTTP {status}: {payload}"
        )

    def loop(self, deadline: float) -> None:
        """Jobs until ``deadline``; the next round goes on where this
        one stopped in the job mix and the cache off/on alternation."""
        while time.monotonic() < deadline:
            index = self.jobs_started
            self.jobs_started += 1
            self.job(self.order[index % len(self.order)], cache=index % 2 == 1)

    def job(self, name: str, cache: bool) -> None:
        service, s = self.service, self.service.session
        run = service.runs[name]
        body = {"scale": run.scale, "seed": run.seed}
        if cache:
            body.update(cache=True, cache_dir=service.cache_dir)
        sent = time.perf_counter()
        with s.root("bench.job"):
            status, payload, _ = self.request(
                "POST", f"/v1/scenarios/{name}/runs", body
            )
            if status != 202:
                self.refused(f"submit {name}", status, payload)
                time.sleep(POLL_S)
                return
            job_id = payload["data"]["id"]
            while True:
                time.sleep(POLL_S)
                status, payload, took = self.request("GET", f"/v1/jobs/{job_id}")
                if status != 200:
                    self.refused(f"status {job_id}", status, payload)
                    return
                service.queries.append(("status", 1000.0 * took))
                view = payload["data"]
                if view["status"] in ("queued", "running"):
                    continue
                status, payload, _ = self.request("GET", f"/v1/jobs/{job_id}/result")
                if status != 409:  # 409 is the protocol's "not finished yet"
                    break
        latency_ms = 1000.0 * (time.perf_counter() - sent)
        if status != 200:
            self.refused(f"result {job_id}", status, payload)
            return
        data = payload["data"] or {}
        trace = data.get("trace") or ""
        golden = service.goldens[name]
        ok = s.check(
            f"{self.tenant} job {job_id} {name} cache={cache}",
            payload["ok"]
            and data.get("status") == "done"
            and data.get("failure_count") == 0
            and trace == golden,
            lambda: (
                f"status={data.get('status')} error={payload.get('error')}\n"
                + diff_head(golden, trace)
            ),
        )
        if ok:
            hits = view["cache"]["hits"] or 0
            misses = view["cache"]["misses"] or 0
            service.jobs.append((hits and not misses, name, latency_ms))
            started, finished = view["started_at"], view["finished_at"]
            s.append("queue_wait_ms", 1000.0 * (started - view["submitted_at"]))
            s.append("job_run_ms", 1000.0 * (finished - started))
        status, payload, took = self.request("GET", "/v1/scenarios")
        if s.check(
            f"{self.tenant} catalogue",
            status == 200 and payload.get("ok"),
            lambda: f"HTTP {status}: {payload}",
        ):
            service.queries.append(("catalogue", 1000.0 * took))


class Service:
    """An in-process daemon (``serve_background``, port 0) configured
    through ``ServerConfig.from_dict``, and two client threads, each its
    own tenant, running closed loops against it."""

    def __init__(self, session: Session):
        from repro.experiments import EXHIBIT_RUNS, golden
        from repro.service.config import ServerConfig
        from repro.service.server import serve_background

        self.session = session
        self.runs = EXHIBIT_RUNS
        self.goldens = {name: _read(golden.committed_path(name)) for name in JOB_MIX}
        self.cache_dir = os.path.join(session.workdir, "cache")
        self._exit = contextlib.ExitStack()
        self.access_log = self._exit.enter_context(
            open(os.path.join(session.workdir, "access.log"), "w", encoding="utf-8")
        )
        server, _ = self._exit.enter_context(
            serve_background(ServerConfig.from_dict(SERVER_CONFIG))
        )
        for middleware in server.app.stack.middlewares:
            if middleware.kind == "access_log":
                middleware.stream = self.access_log
        self.address = server.server_address[:2]
        self.requests = 0
        #: this round's samples from both clients, in wall ms: (served
        #: from cache, scenario, latency) of each checked job, and (kind,
        #: latency) of each status or catalogue GET.
        self.jobs: List[Tuple[bool, str, float]] = []
        self.queries: List[Tuple[str, float]] = []
        probe = Client(self, "setup", [])
        status, payload, _ = probe.request("GET", "/v1/health")
        self.requests += probe.requests
        if status != 200:
            raise RuntimeError(f"service health check answered {status}: {payload}")

    def run(self) -> None:
        s = self.session
        clients = []
        for number in range(2):
            order = list(JOB_MIX)
            random.Random(f"{s.seed}-{s.index}-{number}").shuffle(order)
            clients.append(Client(self, f"tenant-{number}", order))
        before = s.steady_kernel()
        for _ in range(max(1, round(s.seconds / ROUND_S))):
            before = self._round(clients, before)
        self._exit.close()  # stops the daemon and closes the access log
        sent = self.requests + sum(client.requests for client in clients)
        with open(self.access_log.name, "r", encoding="utf-8") as handle:
            logged = sum(1 for _ in handle)
        s.check(
            "access log line count",
            logged == sent,
            lambda: f"{logged} access-log lines for {sent} requests sent",
        )

    def _round(self, clients: List[Client], before: float) -> float:
        """One round of both clients' closed loops; its samples go in at
        reference speed. -> the kernel time that ends it."""
        s = self.session
        started = time.monotonic()
        deadline = started + ROUND_S
        threads = [
            threading.Thread(target=client.loop, args=(deadline,), name=client.tenant)
            for client in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy_s = time.monotonic() - started
        # The clients sampled wall time. The daemon is idle again, so the
        # kernel now and before the round put it at reference speed. A
        # job's first poll waits POLL_S even for a job done at once, at
        # any speed, so that wait stays as it is; later polls wait for
        # CPU work, the job's own or the one queued before it.
        after = s.steady_kernel()
        scale = s.scale(before, after)
        raw_ms = at_reference_ms = 0.0
        first_poll_ms = 1000.0 * POLL_S
        for warm, name, ms in self.jobs:
            job_ms = first_poll_ms + (ms - first_poll_ms) * scale
            s.sample(s.warm_ms if warm else s.cold_ms, name, job_ms)
            s.job_ms.append(job_ms)
            raw_ms += ms
            at_reference_ms += job_ms
        for kind, ms in self.queries:
            s.sample(s.query_ms, kind, ms * scale)
        # each client is inside a job nearly all of the time
        s.busy_s += busy_s * (at_reference_ms / raw_ms if raw_ms else scale)
        s.ops += len(self.jobs)
        self.jobs.clear()
        self.queries.clear()
        return after


WORKLOAD_CLASSES = {
    "paper-exhibits": Exhibits,
    "sweep-incremental": Sweeps,
    "service-closed-loop": Service,
}


def _trace_report(tracer: spans.Tracer) -> Dict:
    edges = tracer.edges()
    roots = [
        (total, own)
        for (parent, name), (_, total, own) in edges.items()
        if parent is None and name.startswith("bench.")
    ]
    return {
        "totals": tracer.totals(),
        "counters": tracer.counters(),
        "root_s": sum(total for total, _ in roots),
        "root_self_s": sum(own for _, own in roots),
        "edges": [
            [parent, name, calls, total, own]
            for (parent, name), (calls, total, own) in sorted(
                edges.items(), key=lambda item: (str(item[0][0]), item[0][1])
            )
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)
    # One CPU per session, chosen before numpy loads: the program is
    # GIL-bound, so it cannot use a second CPU, and on a shared host
    # thread wake-ups across CPUs add milliseconds of noise.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    session = Session(
        args.workload, args.seed, args.index, args.seconds, args.workdir
    )
    workload = WORKLOAD_CLASSES[args.workload](session)
    setup_s = time.monotonic() - args.spawned_at
    setup_s *= REFERENCE_MS / session.steady_kernel()
    trace = None
    if args.trace:
        session.tracer = spans.Tracer()
        with spans.tracing(session.tracer):
            workload.run()
        trace = _trace_report(session.tracer)
    else:
        workload.run()
    report = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": bool(args.trace),
        "trace": trace,
    }
    for field in (
        "cold_ms",
        "warm_ms",
        "query_ms",
        "job_ms",
        "queue_wait_ms",
        "job_run_ms",
        "ops",
        "busy_s",
        "kernel_ms",
        "attempted",
        "failed",
    ):
        report[field] = getattr(session, field)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
