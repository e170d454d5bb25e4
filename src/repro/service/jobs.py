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

The manager keeps the :data:`MAX_FINISHED_JOBS` most recently
finished jobs; an older job's id answers the typed 404, as an unknown
one does. Queued and running jobs are never dropped.

Job views are race-free: :meth:`Job.as_dict` snapshots the mutable
fields under the manager's lock, so a status poll can never observe
e.g. ``running`` with a non-null ``finished_at``.

A job runs the same operation as the CLI
(:func:`repro.scenarios.views.run_scenario_view` or
:func:`~repro.scenarios.views.run_sweep_view`), so the ``trace`` a job
reports is byte-identical to ``repro scenario run --check``'s
rendering of the same (scenario, scale, seed), and a cached sweep job
records its run for ``repro sweep compare``.
"""

from __future__ import annotations

import collections
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..scenarios import views
from ..scenarios.options import RunOptions
from ..schema import NotFound
from .config import QueueConfig

#: finished (done, failed or cancelled) jobs the manager keeps; each
#: holds its result and trace, so an unbounded history grows a
#: long-running daemon by every job it serves.
MAX_FINISHED_JOBS = 1000


class JobStates:
    """The job lifecycle: queued -> running -> done|failed|cancelled."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = frozenset((DONE, FAILED, CANCELLED))


class JobQueueFull(RuntimeError):
    """The bounded queue rejected a submission (HTTP 503 upstream)."""


@dataclass
class Job:
    """One submitted unit of work and everything it produced."""

    id: str
    kind: str  # "scenario" | "sweep"
    name: str
    tenant: str
    options: RunOptions = field(default_factory=RunOptions)
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
    #: the run view's cache block; its hits and misses are filled in
    #: after a cached run.
    cache: Dict = field(init=False)
    #: guards every mutable field; the manager swaps in its own lock
    #: at enqueue time so views and lifecycle commits serialise.
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self):
        self.cache = views.cache_view(self.options)

    @property
    def finished(self) -> bool:
        return self.status in JobStates.TERMINAL

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
                "scale": self.options.scale,
                "seed": self.options.seed,
                "workers": self.options.workers,
                "status": self.status,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "elapsed_s": self._elapsed_locked(),
                "failure_count": len(self.failures),
                "error": self.error,
                "cache": dict(self.cache),
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
        #: every kept job, in submission order.
        self._jobs: Dict[str, Job] = {}
        #: the queued and running jobs.
        self._live: Dict[str, Job] = {}
        #: ids of the kept finished jobs, the earliest finished first.
        self._finished: Deque[str] = collections.deque()
        #: jobs ever finished, per terminal state, kept or not.
        self._finished_counts = {state: 0 for state in JobStates.TERMINAL}
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
        tenant: str = "anonymous",
        **options,
    ) -> Job:
        """Enqueue one scenario run — registered by name, or an inline
        ``Scenario.from_dict`` payload; ``options`` are
        :class:`RunOptions` fields. Bad payloads raise here
        (synchronously, so the API can answer 400/404), never inside a
        worker."""
        run = RunOptions(**options).validate()
        if (name is None) == (scenario is None):
            raise ValueError("submit exactly one of: scenario name, inline payload")
        runner = views.scenario_runner(name, scenario)  # raises on bad names
        return self._enqueue(
            Job(
                id=self._next_id(),
                kind="scenario",
                name=runner.scenario.name,
                tenant=tenant,
                options=run,
                scenario=dict(scenario) if scenario is not None else None,
            )
        )

    def submit_sweep(self, name: str, tenant: str = "anonymous", **options) -> Job:
        """Enqueue one registered sweep (validated synchronously);
        ``options`` are :class:`RunOptions` fields."""
        from ..scenarios.registry import get_sweep

        run = RunOptions(**options).validate()
        get_sweep(name)  # raises NotFound on unknown names
        return self._enqueue(
            Job(id=self._next_id(), kind="sweep", name=name, tenant=tenant, options=run)
        )

    def _next_id(self) -> str:
        return f"job-{next(self._ids):06d}"

    def _enqueue(self, job: Job) -> Job:
        with self._lock:
            if self._closed:
                raise JobQueueFull("the job queue is shutting down")
            queued = sum(1 for j in self._live.values() if j.status == JobStates.QUEUED)
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
            self._live[job.id] = job
        self._queue.put(job.id)
        return job

    # -- inspection ---------------------------------------------------------
    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise NotFound(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every kept job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per state: the queued and running ones now, and every
        one ever finished, including those past the kept history."""
        with self._lock:
            counts = {state: 0 for state in JobStates.ALL}
            for job in self._live.values():
                counts[job.status] += 1
            counts.update(self._finished_counts)
            return counts

    def in_flight_for(self, tenant: str) -> int:
        """Queued + running jobs of one tenant (the quota input)."""
        with self._lock:
            return sum(1 for job in self._live.values() if job.tenant == tenant)

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
                self._retire(job)
        return job

    def _retire(self, job: Job) -> None:
        """Move a job that just finished from the live set to the kept
        history, dropping the earliest finished past the cap."""
        with self._lock:
            del self._live[job.id]
            self._finished_counts[job.status] += 1
            self._finished.append(job.id)
            if len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]

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
            self._retire(job)

    def _run_scenario_job(self, job: Job) -> bool:
        """Run one scenario job; returns True iff cancellation was
        observed (at least one step/chain was skipped because of it)."""
        view = views.run_scenario_view(
            job.options,
            name=job.name if job.scenario is None else None,
            scenario=job.scenario,
            stop=job.cancel_event.is_set,
        )
        with self._lock:
            job.failures = view["failures"]
            job.result = view["result"]
            job.trace = view["trace"]
            job.cache = view["cache"]
        return any(f["error_type"] == "JobCancelled" for f in job.failures)

    def _run_sweep_job(self, job: Job) -> bool:
        """Run one sweep job; returns True iff cancellation was
        observed (some variant's chains were skipped because of it)."""
        outcome, view = views.run_sweep_view(
            job.name, job.options, stop=job.cancel_event.is_set
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
            job.result = view
            job.failures = failures
            job.cache = views.cache_view(job.options, outcome.cache_stats)
        return any(f["error_type"] == "JobCancelled" for f in failures)
