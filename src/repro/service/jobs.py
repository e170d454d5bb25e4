"""Async job queue: submitted scenarios/sweeps -> background execution.

A submission becomes a :class:`Job` on a bounded queue; a small pool of
worker *threads* drains it, each running one job at a time through the
existing execution backends (the heavy lifting stays in
:mod:`repro.scenarios.backends` — serial-with-containment by default,
a process pool when the job asks for ``workers > 1``). The manager
never lets a job kill the daemon:

* a raising *step* is contained as
  :class:`~repro.scenarios.containment.ChainFailure` outcomes and the
  job completes ``done`` with its ``failures`` recorded;
* a raising *job* (bad payload, validation error) completes ``failed``
  with a structured error;
* cancellation is cooperative: the cancel endpoint sets an event the
  chain executor polls between steps (and the pooled backend polls
  between chains), so a cancelled job still collects a partial table
  of the steps it finished — and a cancelled sweep keeps the tables of
  the variants whose chains all finished. A job ends ``cancelled``
  only when the cancellation was actually *observed* — a cancel that
  lands after the last step finished leaves the job ``done`` with its
  full result, and cancelling an already-terminal job is a no-op.

Job views are race-free: :meth:`Job.as_dict` and
:meth:`Job.elapsed_s` snapshot the mutable fields under the manager's
lock, so a status poll can never observe e.g. ``running`` with a
non-null ``finished_at``.

Results are rendered through the golden serializer
(:func:`repro.experiments.golden.render_result`), so the ``trace`` a
job reports is byte-identical to ``repro scenario run --check``'s
rendering of the same (scenario, scale, seed).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..scenarios.options import resolve_cache_dir
from ..scenarios.views import failure_view, jsonify
from .config import QueueConfig

if TYPE_CHECKING:
    from ..scenarios.cache import CacheStats


class JobStates:
    """The job lifecycle: queued -> running -> done|failed|cancelled."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = frozenset((DONE, FAILED, CANCELLED))
    IN_FLIGHT = frozenset((QUEUED, RUNNING))


class JobQueueFull(RuntimeError):
    """The bounded queue rejected a submission (HTTP 503 upstream)."""


@dataclass
class Job:
    """One submitted unit of work and everything it produced."""

    id: str
    kind: str  # "scenario" | "sweep"
    name: str
    tenant: str
    scale: float = 1.0
    seed: int = 0
    workers: int = 1
    #: inline Scenario.from_dict payload (ad-hoc submissions).
    scenario: Optional[Dict] = None
    status: str = JobStates.QUEUED
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: ExperimentResult.as_dict(), JSON-safe; partial when cancelled.
    result: Optional[Dict] = None
    #: the golden-serializer rendering of ``result``.
    trace: Optional[str] = None
    #: contained per-step failures (failure_view dicts), if any.
    failures: List[Dict] = field(default_factory=list)
    #: structured error when the job itself failed.
    error: Optional[Dict] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: run through the content-addressed outcome cache?
    cache: bool = False
    cache_dir: Optional[str] = None
    #: chain-cache counters, filled in after a cached run.
    cache_stats: Optional[CacheStats] = None
    #: guards every mutable field; the manager swaps in its own lock
    #: at enqueue time so views and lifecycle commits serialise.
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    @property
    def finished(self) -> bool:
        return self.status in JobStates.TERMINAL

    def elapsed_s(self) -> Optional[float]:
        with self.lock:
            return self._elapsed_locked()

    def _elapsed_locked(self) -> Optional[float]:
        if self.started_at is None:
            return None
        # repro: allow[DET001] -- wall-clock wait age shown to clients
        end = self.finished_at if self.finished_at is not None else time.time()
        return round(end - self.started_at, 3)

    def as_dict(self, include_result: bool = False) -> Dict:
        """The job's status view; ``include_result`` adds the payload.

        The snapshot is taken under the job's lock — the lifecycle
        fields (``status``/``finished_at``/``failures``/…) can never
        tear against a concurrent status commit.
        """
        with self.lock:
            data = {
                "id": self.id,
                "kind": self.kind,
                "name": self.name,
                "tenant": self.tenant,
                "scale": self.scale,
                "seed": self.seed,
                "workers": self.workers,
                "status": self.status,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "elapsed_s": self._elapsed_locked(),
                "failure_count": len(self.failures),
                "error": self.error,
                "cache": {
                    "enabled": self.cache,
                    "dir": self.cache_dir,
                    "hits": self.cache_stats and self.cache_stats.hits,
                    "misses": self.cache_stats and self.cache_stats.misses,
                },
            }
            if include_result:
                data["result"] = self.result
                data["trace"] = self.trace
                data["failures"] = list(self.failures)
        return data


class JobManager:
    """Bounded queue + worker-thread pool over the execution backends."""

    def __init__(self, config: Optional[QueueConfig] = None):
        self.config = config or QueueConfig()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        # re-entrant: Job.as_dict() takes the same lock the status
        # commit holds, and internal helpers may nest acquisitions.
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{n}", daemon=True
            )
            for n in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ---------------------------------------------------------
    def submit_scenario(
        self,
        name: Optional[str] = None,
        scenario: Optional[Dict] = None,
        scale: float = 1.0,
        seed: int = 0,
        workers: int = 1,
        tenant: str = "anonymous",
        cache: bool = False,
        cache_dir: Optional[str] = None,
    ) -> Job:
        """Enqueue one scenario run — registered by name, or an inline
        ``Scenario.from_dict`` payload. Bad payloads raise here
        (synchronously, so the API can answer 400/404), never inside a
        worker."""
        from ..scenarios.registry import get_definition
        from ..scenarios.spec import Scenario

        if (name is None) == (scenario is None):
            raise ValueError("submit exactly one of: scenario name, inline payload")
        if name is not None:
            get_definition(name)  # raises KeyError on unknown names
            job_name = name
        else:
            parsed = Scenario.from_dict(scenario)  # raises on bad payloads
            parsed.validate()
            job_name = parsed.name
        return self._enqueue(
            Job(
                id=self._next_id(),
                kind="scenario",
                name=job_name,
                tenant=tenant,
                scale=scale,
                seed=seed,
                workers=workers,
                scenario=dict(scenario) if scenario is not None else None,
                cache=bool(cache or cache_dir),
                cache_dir=cache_dir,
            )
        )

    def submit_sweep(
        self,
        name: str,
        scale: float = 1.0,
        seed: int = 0,
        workers: int = 1,
        tenant: str = "anonymous",
        cache: bool = False,
        cache_dir: Optional[str] = None,
    ) -> Job:
        """Enqueue one registered sweep (validated synchronously)."""
        from ..scenarios.registry import get_sweep

        get_sweep(name)  # raises KeyError on unknown names
        return self._enqueue(
            Job(
                id=self._next_id(),
                kind="sweep",
                name=name,
                tenant=tenant,
                scale=scale,
                seed=seed,
                workers=workers,
                cache=bool(cache or cache_dir),
                cache_dir=cache_dir,
            )
        )

    def _next_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _enqueue(self, job: Job) -> Job:
        with self._lock:
            if self._closed:
                raise JobQueueFull("the job queue is shutting down")
            queued = sum(
                1 for j in self._jobs.values() if j.status == JobStates.QUEUED
            )
            if queued >= self.config.capacity:
                raise JobQueueFull(
                    f"job queue is full ({queued} queued, "
                    f"capacity {self.config.capacity})"
                )
            # repro: allow[DET001] -- wall-clock submit timestamp, client-facing
            job.submitted_at = time.time()
            # share the manager lock so job views and lifecycle
            # commits serialise on the same monitor.
            job.lock = self._lock
            self._jobs[job.id] = job
            self._order.append(job.id)
        self._queue.put(job.id)
        return job

    # -- inspection ---------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every job, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def in_flight_for(self, tenant: str) -> int:
        """Queued + running jobs of one tenant (the quota input)."""
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.tenant == tenant and job.status in JobStates.IN_FLIGHT
            )

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Job:
        """Block until a job finishes (in-process convenience)."""
        job = self.get(job_id)
        deadline = time.monotonic() + timeout_s
        while not job.finished:
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} still {job.status}")
            time.sleep(0.02)
        return job

    # -- cancellation -------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Request cancellation; cooperative, so a running job stops at
        its next step boundary and keeps the steps it finished.

        Terminal jobs are left untouched (the event is *not* set — a
        cancel landing after completion must not relabel a finished
        job)."""
        job = self.get(job_id)
        with self._lock:
            if job.finished:
                return job
            job.cancel_event.set()
            if job.status == JobStates.QUEUED:
                # never started: nothing partial to keep.
                job.status = JobStates.CANCELLED
                # repro: allow[DET001] -- wall-clock finish timestamp, client-facing
                job.finished_at = time.time()
        return job

    def close(self) -> None:
        """Stop accepting work and wake the workers to exit."""
        with self._lock:
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)

    # -- execution ----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is None or job.finished:  # cancelled while queued
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.finished:
                return
            job.status = JobStates.RUNNING
            # repro: allow[DET001] -- wall-clock start timestamp, client-facing
            job.started_at = time.time()
        try:
            if job.kind == "scenario":
                observed_cancel = self._run_scenario_job(job)
            else:
                observed_cancel = self._run_sweep_job(job)
            # a job is cancelled only if the cancellation was actually
            # observed (a step/chain was skipped because of it). A
            # cancel that lands after the last step finished changes
            # nothing: the job completed, so it is done.
            status = JobStates.CANCELLED if observed_cancel else JobStates.DONE
        except Exception as error:  # the job fails; the server never does
            error_view = {"type": type(error).__name__, "message": str(error)}
            status = JobStates.FAILED
        else:
            error_view = None
        with self._lock:
            job.error = error_view if status == JobStates.FAILED else job.error
            job.status = status
            # repro: allow[DET001] -- wall-clock finish timestamp, client-facing
            job.finished_at = time.time()

    def _run_scenario_job(self, job: Job) -> bool:
        """Run one scenario job; returns True iff cancellation was
        observed (at least one step/chain was skipped because of it)."""
        from ..experiments.golden import render_result
        from ..scenarios.registry import get_definition
        from ..scenarios.backends import backend_for
        from ..scenarios.merge import run_reports
        from ..scenarios.runner import ScenarioRunner
        from ..scenarios.spec import Scenario

        if job.scenario is not None:
            runner = ScenarioRunner(Scenario.from_dict(job.scenario))
        else:
            runner = get_definition(job.name)
        plan = runner.plan(scale=job.scale, seed=job.seed)
        runner.validate(plan)
        backend = backend_for(
            job.workers,
            cache_dir=resolve_cache_dir(job.cache_dir) if job.cache else None,
            contain=True,
            stop=job.cancel_event.is_set,
        )
        (report,) = run_reports(backend, [(runner, plan)])
        result = report.unwrap()
        with self._lock:
            job.failures = [failure_view(failure) for failure in report.failures]
            job.result = jsonify(result.as_dict())
            job.trace = render_result(result)
            job.cache_stats = report.cache_stats
        return report.cancelled

    def _run_sweep_job(self, job: Job) -> bool:
        """Run one sweep job; returns True iff cancellation was
        observed (some variant's chains were skipped because of it)."""
        from ..scenarios.sweep import run_sweep  # submit_sweep loaded the catalogue

        outcome = run_sweep(
            job.name,
            scale=job.scale,
            seed=job.seed,
            workers=job.workers,
            cache_dir=resolve_cache_dir(job.cache_dir) if job.cache else None,
            stop=job.cancel_event.is_set,
        )
        failures = [
            {
                "variant": failed.name,
                "error_type": failed.error_type,
                "error": failed.error,
            }
            for failed in outcome.failed
        ]
        with self._lock:
            job.result = jsonify(outcome.as_dict())
            job.failures = failures
            job.cache_stats = outcome.cache_stats
        return any(failed.error_type == "JobCancelled" for failed in outcome.failed)
