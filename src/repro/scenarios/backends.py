"""Pluggable execution backends for scenario runs.

The scenario *declaration* never changes; *where and how* its steps
execute is a backend decision (the RAFDA separation of application
logic from distribution policy). Every backend has one entry point,
``run_chains(tasks)``: it takes ``(plan, chain)`` pairs
(:func:`~repro.scenarios.planner.partition`) from any number of plans
and hands back ``(task position, outcomes)`` as each chain completes
(:mod:`~repro.scenarios.merge` puts them back in plan order):

* :class:`SerialBackend` — chains in order, in this process;
* :class:`ProcessPoolBackend` — chains fanned out over a
  multiprocessing pool: session-sharing chains run in order on one
  worker, independent chains concurrently. One pool round runs every
  chain; each chain it could not finish gets one retry round alone.

Both produce bit-identical outcomes: every step runs on a fresh
:class:`~repro.simulation.des.Environment`, sessions are rebuilt in
the worker from the same (scenario, policy, seed) triple, and all
random streams are counter-keyed on spec reprs and trial ids (PR 3),
so neither process boundaries nor scheduling order can reach the
bytes. ``tests/test_scenarios_parallel.py`` proves it against the
committed golden traces for all 15 exhibits.

Step execution itself lives in :class:`ChainExecutor` — the single
implementation both backends drive, and the one holder of a run's
PipeTune sessions: code that inspects a session drives an executor
directly. Its inputs are plain picklable declarations. It runs every
HPT job through :func:`execute_job` (one spec on a freshly built
:class:`~repro.scenarios.spec.ClusterSpec`) and sizes PipeTune
sessions with :func:`session_for_cluster`; code that needs a custom
workload, space or ``PipeTuneConfig`` uses the same two.
:func:`backend_for` builds every backend.

Whether a failure is contained is a setting, not a second backend. A
step that raises is wrapped in :class:`~repro.scenarios.containment.
StepExecutionError` so the error names its scenario, plan position and
chain; with ``SerialBackend(contain=True)`` and always under the pool
the failure is *contained* and comes back as
:class:`~repro.scenarios.containment.ChainFailure` outcomes instead of
poisoning the run, and a chain whose pool worker dies outright
(segfault, OOM-kill) or hangs is retried once in isolation before it
is reported as failed — all other chains still complete.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..core.pipetune import PipeTuneConfig, PipeTuneSession
from ..multitenancy.arrivals import generate_arrivals
from ..multitenancy.scheduler import MultiTenancyResult, run_multi_tenancy
from ..simulation.des import Environment
from ..tune.runner import HptJobSpec, HptResult, run_hpt_job
from ..tune.trainer import run_trial
from ..workloads.registry import get_workload, type12_workloads
from ..workloads.spec import PAPER_CORE_GRID, PAPER_MEMORY_GRID_GB, WorkloadSpec
from .containment import ChainFailure, StepExecutionError, format_traceback
from .cache import CachingBackend, OutcomeCache
from .planner import ExecutionChain
from .runner import (
    AnalysisStep,
    FixedTrialStep,
    JobStep,
    ScenarioPlan,
    Step,
    TraceStep,
    build_job_spec,
)
from .spec import ClusterSpec, Scenario, SystemPolicySpec

if TYPE_CHECKING:
    from concurrent import futures

#: one chain of one plan — what every backend's ``run_chains`` takes.
Task = Tuple[ScenarioPlan, ExecutionChain]


def session_for_cluster(
    cluster: ClusterSpec,
    config: Optional[PipeTuneConfig] = None,
    seed: int = 0,
) -> PipeTuneSession:
    """A PipeTune session sized for ``cluster``'s nodes.

    Per-trial system limits are the node's cores and (at most) the
    paper's 32 GB memory cap. Without an explicit ``config`` the
    probing grids are trimmed to what the node can host: the paper's
    single 8-core/24 GB node probes cores (4, 8) and memory
    (4, 8, 16) GB.
    """
    max_cores = cluster.cores_per_node
    max_memory_gb = min(32.0, cluster.memory_gb_per_node)
    session = PipeTuneSession(
        config=config, max_cores=max_cores, max_memory_gb=max_memory_gb, seed=seed
    )
    if config is None:
        cores_grid = tuple(c for c in PAPER_CORE_GRID if c <= max_cores)
        memory_grid = tuple(m for m in PAPER_MEMORY_GRID_GB if m <= max_memory_gb)
        if cores_grid and cores_grid != tuple(PAPER_CORE_GRID):
            session.config.cores_grid = cores_grid
        if memory_grid and memory_grid != tuple(PAPER_MEMORY_GRID_GB):
            session.config.memory_grid_gb = memory_grid
    return session


def execute_job(spec: HptJobSpec, cluster: ClusterSpec) -> HptResult:
    """Run one HPT job to completion on a freshly built ``cluster``."""
    env = Environment()
    process = run_hpt_job(env, cluster.build(env), spec)
    env.run()
    return process.value


def _resolve_warm_start(scenario: Scenario, policy: SystemPolicySpec):
    if policy.effective_warm_start(scenario.cluster) == "type12":
        return type12_workloads()
    return [get_workload(name) for name in scenario.workloads]


@dataclass
class ChainExecutor:
    """Executes plan steps against one scenario; owns the sessions.

    Construction needs only picklable declarations — ``scenario``,
    ``scale`` and the plan's base ``seed`` — so a pool worker can
    rebuild an identical executor from the task payload. Within one
    executor, dedicated-tenancy steps of a pipetune policy share one
    lazily created session (exactly the serial runner's contract);
    every multi-tenant trace gets a private one.
    """

    scenario: Scenario
    scale: float
    seed: int
    #: one long-lived PipeTune session per policy, lazily created.
    sessions: Dict[SystemPolicySpec, object] = field(default_factory=dict)

    # -- step dispatch ------------------------------------------------------
    def run_step(self, step: Step):
        if isinstance(step, JobStep):
            return self._run_job(step)
        if isinstance(step, FixedTrialStep):
            return self._run_fixed_trial(step)
        if isinstance(step, TraceStep):
            return self._run_trace(step)
        if isinstance(step, AnalysisStep):
            return step.fn(self.scale, self.seed)
        raise TypeError(f"unknown step type {type(step).__name__}")

    def run_chain(
        self,
        chain: ExecutionChain,
        contain: bool = False,
        stop: Optional[Callable[[], bool]] = None,
    ) -> List:
        """Run one chain's steps in order.

        With ``contain=False`` (default) the first raising step
        escapes as a :class:`StepExecutionError` carrying its
        execution context (one the step itself raised escapes as is).
        With ``contain=True`` the failure is turned
        into outcomes instead: the raising position becomes a
        :class:`ChainFailure` with the error and traceback, every
        later position of the same chain a skipped one (its session
        state is suspect once an earlier step died), and the list
        stays one-outcome-per-step so merge slots it into plan order.

        ``stop`` is a cooperative cancellation hook (the service's
        cancel endpoint): it is polled before each step, and once it
        returns True every remaining position comes back as a skipped
        ``JobCancelled`` :class:`ChainFailure` — completed steps keep
        their results, so a cancelled run still collects into a
        partial table.
        """
        name = self.scenario.name
        outcomes: List = []
        for offset, (position, step) in enumerate(zip(chain.indices, chain.steps)):
            if stop is not None and stop():
                return outcomes + chain_failures(
                    name,
                    chain,
                    _CANCELLED,
                    "job cancelled before this step ran",
                    start=offset,
                    skipped=True,
                )
            try:
                outcomes.append(self.run_step(step))
            except Exception as error:
                if not contain:
                    if isinstance(error, StepExecutionError):
                        raise
                    raise StepExecutionError(
                        name, chain.index, position, step.describe(), error
                    ) from error
                return outcomes + chain_failures(
                    name,
                    chain,
                    type(error).__name__,
                    str(error),
                    start=offset,
                    traceback=format_traceback(error),
                    later=f"skipped: step {position} failed earlier in this chain",
                )
        return outcomes

    # -- sessions -----------------------------------------------------------
    def _session_for(self, policy: SystemPolicySpec, shared: bool = True):
        if not shared:
            return self._fresh_session(policy)
        session = self.sessions.get(policy)
        if session is None:
            session = self.sessions[policy] = self._fresh_session(policy)
        return session

    def _fresh_session(self, policy: SystemPolicySpec):
        session = session_for_cluster(self.scenario.cluster, seed=self.seed)
        session.warm_start(_resolve_warm_start(self.scenario, policy))
        return session

    # -- step implementations -----------------------------------------------
    def _run_job(self, step: JobStep) -> HptResult:
        session = None
        if step.policy.kind == "pipetune":
            session = self._session_for(step.policy)
        spec = build_job_spec(
            self.scenario, step.policy, step.workload, step.seed, session=session
        )
        return execute_job(spec, self.scenario.cluster)

    def _run_fixed_trial(self, step: FixedTrialStep):
        env = Environment()
        cluster = self.scenario.cluster.build(env)
        trial_name = step.policy.name or step.policy.label
        process = env.process(
            run_trial(
                env,
                cluster,
                trial_id=f"{trial_name}-{step.seed}",
                workload=step.workload,
                hyper=step.policy.hyper_params(),
                system=step.policy.system_params(),
            )
        )
        env.run()
        return process.value

    def _run_trace(self, step: TraceStep) -> MultiTenancyResult:
        scenario = self.scenario
        tenancy = scenario.tenancy
        env = Environment()
        cluster = scenario.cluster.build(env)
        groups: Dict[str, List[WorkloadSpec]] = {}
        for name in scenario.workloads:
            workload = get_workload(name)
            groups.setdefault(workload.workload_type, []).append(workload)
        arrivals = generate_arrivals(
            list(groups.values()),
            num_jobs=step.num_jobs,
            mean_interarrival_s=tenancy.mean_interarrival_s,
            unseen_fraction=tenancy.unseen_fraction,
            seed=step.seed,
        )
        policy = step.policy
        # every trace is an isolated deployment: its own session.
        session = (
            self._session_for(policy, shared=False)
            if policy.kind == "pipetune"
            else None
        )

        def factory(workload: WorkloadSpec, arrival) -> HptJobSpec:
            return build_job_spec(
                scenario, policy, workload, step.seed + arrival.index, session=session
            )

        return run_multi_tenancy(
            env,
            cluster,
            arrivals,
            factory,
            max_concurrent_jobs=tenancy.max_concurrent_jobs,
        )


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

_CANCELLED = "JobCancelled"


def chain_failures(
    scenario: str,
    chain: ExecutionChain,
    error_type: str,
    error: str,
    start: int = 0,
    skipped: bool = False,
    traceback: str = "",
    later: Optional[str] = None,
) -> List[ChainFailure]:
    """One :class:`ChainFailure` per position of ``chain`` from offset
    ``start`` on, each carrying ``error`` — or, with ``later`` set,
    only the first (with ``traceback``); the rest are skipped with
    ``later`` as their error (a failed step's session is suspect)."""
    return [
        ChainFailure(
            scenario=scenario,
            chain_index=chain.index,
            step_index=position,
            step_label=step.describe(),
            error_type=error_type,
            error=error if offset == 0 or later is None else later,
            traceback=traceback if offset == 0 else "",
            skipped=skipped or (offset > 0 and later is not None),
        )
        for offset, (position, step) in enumerate(
            zip(chain.indices[start:], chain.steps[start:])
        )
    ]


def _cancelled(task: Task) -> List[ChainFailure]:
    """The outcomes of a pooled chain the stop hook kept from starting."""
    plan, chain = task
    message = "job cancelled before this chain started"
    return chain_failures(plan.scenario.name, chain, _CANCELLED, message, skipped=True)


class SerialBackend:
    """Chains in order, in this process, one per result asked for.

    A chain starts only when the caller asks for the next result, so a
    caller that collects each finished plan first holds one plan's
    outcomes at a time.

    ``contain=False`` (default — an interactive run wants the
    traceback) lets the first raising step escape as a
    :class:`StepExecutionError` naming the scenario, plan position,
    step and chain, with the original chained as its cause; a
    :class:`StepExecutionError` raised *inside* a step propagates
    unwrapped. ``contain=True`` instead contains it as
    :class:`~repro.scenarios.containment.ChainFailure` outcomes (pool
    semantics): a service job that hits a bad step degrades to a
    partial table and never kills the serving worker. ``stop`` adds
    cooperative cancellation: it is polled between steps and turns
    every step not yet started into a skipped ``JobCancelled`` failure.
    Results for surviving steps are identical either way (same
    executor, same streams).
    """

    def __init__(
        self, contain: bool = False, stop: Optional[Callable[[], bool]] = None
    ):
        self.contain = contain
        self.stop = stop

    def run_chains(self, tasks: Iterable[Task]) -> Iterator[Tuple[int, List]]:
        executor = current = None
        for position, (plan, chain) in enumerate(tasks):
            if plan is not current:
                current = plan
                executor = ChainExecutor(plan.scenario, plan.scale, plan.seed)
            yield position, executor.run_chain(
                chain, contain=self.contain, stop=self.stop
            )

    def __repr__(self) -> str:
        return f"SerialBackend(contain={self.contain})"


def _run_chain_task(payload) -> List:
    """Pool task: rebuild the executor in the worker, run one chain.

    Containment is on: a raising chain returns :class:`ChainFailure`
    outcomes rather than propagating an exception across the process
    boundary, so one bad chain cannot abort its siblings.
    """
    scenario, scale, seed, chain = payload
    executor = ChainExecutor(scenario=scenario, scale=scale, seed=seed)
    return executor.run_chain(chain, contain=True)


def default_start_method() -> str:
    """``fork`` where the platform has it (cheap, no re-import), else
    the platform default (``spawn`` on macOS/Windows). Either way the
    workers rebuild all state from the pickled declarations, so the
    choice cannot affect results — only startup latency."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


def _payload(task: Task):
    plan, chain = task
    return (plan.scenario, plan.scale, plan.seed, chain)


#: a chain a pool round could not finish: (task position, error
#: type, reason), retried in isolation or reported as failed.
Pending = Tuple[int, str, str]


class ProcessPoolBackend:
    """Chains fanned out over a process pool, with fault tolerance.

    Sessions live and die inside the workers. Every chain runs in one
    pool round on ``workers`` processes; each chain that round could
    not finish gets exactly one retry, alone in a round on a fresh
    single-worker pool; whatever fails its retry comes back as
    :class:`ChainFailure` outcomes, so ``run_chains`` hands back every
    chain either way. The harness survives its own failures:

    * a chain that *raises* is contained inside the worker — its plan
      positions come back as :class:`ChainFailure` outcomes and the
      pool keeps serving other chains;
    * a worker that *dies* (segfault, OOM-kill, ``os._exit``) breaks
      the round's pool for every unfinished chain; the isolated
      retries let a deterministically crashing chain indict only
      itself while innocent bystanders complete;
    * ``chain_timeout_s`` bounds each round; hung workers are
      terminated and their chains retried.

    ``stop`` adds cooperative cancellation at chain granularity (the
    service's cancel endpoint for pooled jobs): a round polls it before
    it submits anything and between completions, and once it returns
    True every chain not yet handed to a worker is cancelled into
    skipped ``JobCancelled`` outcomes while running chains finish and
    keep their results — the serial executor's between-step semantics
    one level up.
    """

    #: seconds between stop-hook polls while futures are in flight.
    _STOP_POLL_S = 0.05

    def __init__(
        self,
        workers: int,
        chain_timeout_s: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chain_timeout_s is not None and chain_timeout_s <= 0:
            raise ValueError("chain_timeout_s must be positive")
        self.workers = workers
        self.chain_timeout_s = chain_timeout_s
        self.stop = stop

    def run_chains(self, tasks: Iterable[Task]) -> Iterator[Tuple[int, List]]:
        tasks = list(tasks)
        pending = yield from self._round(tasks, range(len(tasks)), self.workers)
        failed: List[Pending] = []
        for position, _, _ in pending:
            failed += yield from self._round(tasks, [position], 1)
        for position, error_type, reason in failed:
            plan, chain = tasks[position]
            yield position, chain_failures(
                plan.scenario.name, chain, error_type, reason
            )

    def _round(self, tasks: List[Task], positions: Iterable[int], workers: int):
        """One round of ``positions`` on a fresh pool of ``workers``.

        At most ``workers`` chains are in flight, topped up as soon as
        any one finishes. ``ProcessPoolExecutor`` eagerly stages
        submitted items beyond the running set into its internal call
        queue, where ``Future.cancel()`` silently fails; throttling
        keeps unstarted chains on this side of the pool, so a stop
        deterministically cancels every chain not yet submitted.

        A generator: once the round has ended and its pool is torn
        down, it hands back ``(position, outcomes)`` for every finished
        or cancelled chain — so ``chain_timeout_s`` bounds the pool's
        own work, never the caller's — and returns the :data:`Pending`
        entries of the rest, both in position order.
        """
        # the pool stack loads when a pool first runs, not for serial runs
        import multiprocessing
        from concurrent import futures
        from concurrent.futures.process import BrokenProcessPool

        unsent = list(positions)
        if not unsent:
            return []
        timeout = self.chain_timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        context = multiprocessing.get_context(default_start_method())
        executor = futures.ProcessPoolExecutor(
            max_workers=min(workers, len(unsent)), mp_context=context
        )
        running: Dict[futures.Future, int] = {}
        done: Dict[int, List] = {}
        pending: List[Pending] = []
        halt: Optional[str] = None
        try:
            while True:
                if halt is None and self.stop is not None and self.stop():
                    halt = "stop"
                    for future in running:
                        future.cancel()  # best effort on staged futures
                while halt is None and unsent and len(running) < workers:
                    try:
                        future = executor.submit(
                            _run_chain_task, _payload(tasks[unsent[0]])
                        )
                    except BrokenProcessPool:
                        # submit refuses once a worker death broke the pool
                        halt = "broken"
                    else:
                        running[future] = unsent.pop(0)
                if not running:
                    break
                wait_s = self._STOP_POLL_S
                if deadline is not None:
                    wait_s = min(wait_s, deadline - time.monotonic())
                    if wait_s <= 0:
                        break
                finished, _ = futures.wait(
                    running, timeout=wait_s, return_when=futures.FIRST_COMPLETED
                )
                for future in finished:
                    position = running.pop(future)
                    if future.cancelled():
                        # the stop hook fired before this chain started.
                        done[position] = _cancelled(tasks[position])
                        continue
                    try:
                        done[position] = future.result()
                    except BrokenProcessPool:
                        # the dying worker takes the whole pool down;
                        # every unfinished chain lands here.
                        reason = "a worker process died while the pool ran this chain"
                        pending.append((position, "BrokenProcessPool", reason))
                    except Exception as error:
                        pending.append((position, type(error).__name__, str(error)))
        finally:
            self._teardown(executor)
        for position in running.values():
            reason = f"chain did not finish within {timeout:g}s"
            pending.append((position, "TimeoutError", reason))
        for position in unsent:
            if halt == "stop":
                done[position] = _cancelled(tasks[position])
            elif halt == "broken":
                reason = "a worker process died before this chain was submitted"
                pending.append((position, "BrokenProcessPool", reason))
            else:
                reason = f"chain was not submitted within {timeout:g}s"
                pending.append((position, "TimeoutError", reason))
        yield from sorted(done.items())
        return sorted(pending)

    @staticmethod
    def _teardown(executor: futures.ProcessPoolExecutor) -> None:
        # shutdown(wait=True) blocks forever on a hung or dead-locked
        # worker and the stdlib exposes no kill switch, so terminate
        # survivors by hand after a non-blocking shutdown (_processes
        # and _executor_manager_thread are private but stable across
        # 3.10-3.12). The executor's manager thread reaps the workers
        # too: join it as well, or a worker it reaped may still read as
        # alive, its exit status not yet recorded, when this returns.
        workers = dict(getattr(executor, "_processes", None) or {})
        manager = getattr(executor, "_executor_manager_thread", None)
        executor.shutdown(wait=False, cancel_futures=True)
        for worker in workers.values():
            if worker.is_alive():
                worker.terminate()
        for worker in workers.values():
            worker.join(timeout=5.0)
        if manager is not None:
            manager.join(timeout=5.0)

    def __repr__(self) -> str:
        return (
            f"ProcessPoolBackend(workers={self.workers}, "
            f"chain_timeout_s={self.chain_timeout_s})"
        )


def backend_for(
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    contain: bool = False,
    stop: Optional[Callable[[], bool]] = None,
):
    """The one backend builder.

    ``workers`` None/0/1 gives the :class:`SerialBackend` (``contain``
    decides whether a raising step escapes), more a
    :class:`ProcessPoolBackend` of that size (always contained);
    ``stop`` is the cooperative cancel hook of either. A ``cache_dir``
    wraps the result in a :class:`~repro.scenarios.cache.CachingBackend`
    over the outcome cache rooted there.
    """
    if workers is None or workers <= 1:
        backend = SerialBackend(contain=contain, stop=stop)
    else:
        backend = ProcessPoolBackend(workers=workers, stop=stop)
    if cache_dir is None:
        return backend
    return CachingBackend(backend, OutcomeCache(cache_dir))
