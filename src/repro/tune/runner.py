"""The HPT-job runner: executes a whole hyperparameter-tuning job.

Reproduces the Tune-like tuning flow of paper Fig 6: an HPT job takes
a workload, a search space, parameter ranges and an objective, spawns
training trials under a search algorithm, and outputs the optimal
parameters plus the tuning timeline.

Three *system policies* cover the paper's three compared systems:

* ``v1``   — every trial runs with the same default system parameters
             (Tune V1, Baseline I);
* ``v2``   — system parameters are part of the search space and each
             trial uses its sampled values (Tune V2, Baseline II);
* custom hooks (PipeTune) — trials start from the default system
             parameters and the hook pipeline adjusts them per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..hpo.algorithms import Observation, SearchAlgorithm, Suggestion
from ..hpo.space import split_config
from ..schema import positional_pickle
from ..simulation.cluster import SimCluster
from ..simulation.des import Environment, Resource
from ..workloads.spec import HyperParams, SystemParams, WorkloadSpec
from .errors import NodeDeparted, TrialCrashed, TrialError, TrialPreempted
from .faults import FaultEvent, FaultModel, RetryPolicy
from .objectives import Objective, accuracy_objective
from .trainer import TrialHooks, run_trial
from .trial import TrialResult


@positional_pickle
@dataclass
class TrialFailure:
    """A trial that died (e.g. OOM) instead of finishing."""

    trial_id: str
    error: TrialError
    failed_at: float

#: system parameters used when a job does not tune them (Tune V1 and
#: the starting point of PipeTune trials): half the node's cores (the
#: typical executor default of the paper's BigDL/Spark stack) and
#: enough memory to never spill.
DEFAULT_SYSTEM = SystemParams(cores=8, memory_gb=32.0)

HooksFactory = Callable[[str, WorkloadSpec, HyperParams, SystemParams], TrialHooks]


@positional_pickle
@dataclass(slots=True)
class TimelinePoint:
    """One completed trial on the tuning wall-clock (Figs 9 & 10)."""

    wall_time_s: float
    trial_id: str
    trial_accuracy: float
    trial_training_time_s: float
    best_score: float
    best_accuracy: float


@dataclass
class HptJobSpec:
    """Specification of one hyperparameter-tuning job."""

    workload: WorkloadSpec
    algorithm_factory: Callable[[], SearchAlgorithm]
    objective: Objective = accuracy_objective
    system_policy: str = "v1"  # "v1" | "v2" | "hooks"
    default_system: SystemParams = DEFAULT_SYSTEM
    hooks_factory: Optional[HooksFactory] = None
    contention: float = 1.0
    name: str = ""
    #: upper bound on concurrent trials per job; within it, how many
    #: trials actually run in parallel is decided by the cluster's
    #: free cores/memory — jobs whose trials have smaller footprints
    #: (PipeTune after downsizing) pack more trials per node.
    max_concurrent: int = 16
    #: one-time cost per trial for reshaping executor resources. Zero
    #: for v1 (all trials share the default shape, executors stay
    #: warm); the v2 policy pays an executor restart per trial.
    trial_setup_s: float = 0.0
    #: failure injection: working-set-to-memory ratio beyond which a
    #: trial dies with OOM. None (default) disables trial failures.
    oom_threshold: Optional[float] = None
    #: hostile-world fault model (preemption/churn/crashes/stragglers);
    #: None (default) injects nothing and touches no random stream.
    faults: Optional[FaultModel] = None
    #: recovery policy for transient trial crashes; None means a single
    #: crash fails the trial (no retries).
    retry: Optional[RetryPolicy] = None

    def __post_init__(self):
        if self.system_policy not in ("v1", "v2", "hooks"):
            raise ValueError("system_policy must be 'v1', 'v2' or 'hooks'")
        if self.system_policy == "hooks" and self.hooks_factory is None:
            raise ValueError("hooks policy requires a hooks_factory")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


@positional_pickle
@dataclass
class HptResult:
    """Outcome of one HPT job."""

    job_name: str
    workload: WorkloadSpec
    best_hyper: Optional[HyperParams]
    best_system: Optional[SystemParams]
    best_accuracy: float
    best_training_time_s: float
    tuning_time_s: float
    tuning_energy_j: float
    submitted_at: float
    finished_at: float
    trials: List[TrialResult] = field(default_factory=list)
    timeline: List[TimelinePoint] = field(default_factory=list)
    failures: List[TrialFailure] = field(default_factory=list)
    #: every injected fault and the recovery action taken, in
    #: simulated-time order (empty when no fault model is active).
    fault_events: List[FaultEvent] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def num_failures(self) -> int:
        return len(self.failures)

    @property
    def response_time_s(self) -> float:
        """Submission-to-completion latency (multi-tenancy metric)."""
        return self.finished_at - self.submitted_at


class HptJobRunner:
    """Executes one :class:`HptJobSpec` as a DES process."""

    def __init__(self, env: Environment, cluster: SimCluster, spec: HptJobSpec):
        self.env = env
        self.cluster = cluster
        self.spec = spec
        #: results per trial id (latest segment wins, for resumed trials)
        self._results: Dict[str, TrialResult] = {}
        #: the largest node shape, which clips every trial's request.
        self._max_cores = max(n.spec.cores for n in cluster.nodes)
        self._max_mem = max(n.spec.memory_gb for n in cluster.nodes)

    def _clip_to_cluster(self, system: SystemParams) -> SystemParams:
        """Clamp a system request to what the largest node can host."""
        max_cores, max_mem = self._max_cores, self._max_mem
        if system.cores <= max_cores and system.memory_gb <= max_mem:
            return system
        return SystemParams(
            cores=min(system.cores, max_cores),
            memory_gb=min(system.memory_gb, max_mem),
        )

    def _config_for(self, suggestion: Suggestion) -> Tuple[HyperParams, SystemParams]:
        """The trial's hyperparameters and clipped system, split once."""
        hyper, system = split_config(suggestion.params)
        if self.spec.system_policy != "v2":
            system = self.spec.default_system
        elif system is None:
            raise ValueError("v2 policy needs cores/memory_gb in the search space")
        return hyper, self._clip_to_cluster(system)

    def _hooks_for(
        self, suggestion: Suggestion, hyper: HyperParams, system: SystemParams
    ) -> TrialHooks:
        if self.spec.system_policy == "hooks":
            assert self.spec.hooks_factory is not None
            return self.spec.hooks_factory(
                suggestion.trial_id, self.spec.workload, hyper, system
            )
        return TrialHooks()

    def _gated_trial(
        self, slots: Resource, events: List[FaultEvent], **kwargs
    ) -> Generator:
        """Run one trial once a concurrency slot frees up.

        Trial-level failures (OOM etc.) are contained here and turned
        into :class:`TrialFailure` values so one dead trial never
        aborts the whole HPT job. Recoverable faults from the job's
        fault model are recovered in place — checkpoint restore after
        preemption, segment reschedule after node churn, retry with
        exponential backoff after transient crashes — each within its
        spec's event budget; exhausting a budget fails the trial.
        """
        yield slots.request()
        spec = self.spec
        faults = spec.faults
        trial_id = kwargs["trial_id"]
        base_start = kwargs.get("start_epoch", 0) or 0
        attempt = 0
        counts = {"preemption": 0, "churn": 0, "crash": 0}

        def record(kind: str, error, action: str) -> None:
            events.append(
                FaultEvent(
                    trial_id=trial_id,
                    kind=kind,
                    epoch=error.epoch,
                    at=self.env.now,
                    attempt=attempt,
                    action=action,
                )
            )

        def failure(error) -> TrialFailure:
            return TrialFailure(
                trial_id=trial_id, error=error, failed_at=self.env.now
            )

        try:
            while True:
                try:
                    result = yield from run_trial(
                        faults=faults, attempt=attempt, **kwargs
                    )
                except TrialPreempted as error:
                    preemption = faults.preemption if faults else None
                    counts["preemption"] += 1
                    if preemption is None or (
                        counts["preemption"] > preemption.max_events
                    ):
                        record("preemption", error, "gave-up")
                        return failure(error)
                    record("preemption", error, "resumed")
                    yield self.env.timeout(preemption.effective_restore_cost_s)
                    kwargs["start_epoch"] = max(
                        base_start, error.checkpoint_epoch
                    )
                except NodeDeparted as error:
                    churn = faults.churn if faults else None
                    counts["churn"] += 1
                    if churn is None or counts["churn"] > churn.max_events:
                        record("churn", error, "gave-up")
                        return failure(error)
                    record("churn", error, "restarted")
                    yield self.env.timeout(churn.reschedule_delay_s)
                    # churn loses the local state: back to segment start.
                    kwargs["start_epoch"] = base_start
                except TrialCrashed as error:
                    retry = spec.retry
                    counts["crash"] += 1
                    if retry is None or counts["crash"] > retry.max_retries:
                        record("crash", error, "gave-up")
                        return failure(error)
                    record("crash", error, "retried")
                    yield self.env.timeout(
                        retry.backoff_s(counts["crash"] - 1)
                    )
                    kwargs["start_epoch"] = base_start
                except TrialError as error:
                    return failure(error)
                else:
                    return result
                attempt += 1
        finally:
            slots.release()

    def run(self) -> Generator:
        """DES process generator; its value is the :class:`HptResult`."""
        spec = self.spec
        algorithm = spec.algorithm_factory()
        slots = Resource(self.env, spec.max_concurrent)
        submitted = self.env.now
        best_score = float("-inf")
        best_result: Optional[TrialResult] = None
        timeline: List[TimelinePoint] = []
        failures: List[TrialFailure] = []
        fault_events: List[FaultEvent] = []
        total_energy = 0.0

        while not algorithm.done:
            batch = algorithm.next_batch()
            if not batch:
                if algorithm.pending_count:
                    raise RuntimeError(
                        "search algorithm stalled with pending trials"
                    )
                break
            processes = []
            for suggestion in batch:
                hyper, system = self._config_for(suggestion)
                hooks = self._hooks_for(suggestion, hyper, system)
                processes.append(
                    (
                        suggestion,
                        self.env.process(
                            self._gated_trial(
                                slots,
                                fault_events,
                                env=self.env,
                                cluster=self.cluster,
                                trial_id=f"{spec.name}/{suggestion.trial_id}"
                                if spec.name
                                else suggestion.trial_id,
                                workload=spec.workload,
                                hyper=hyper,
                                system=system,
                                start_epoch=suggestion.start_epoch,
                                target_epochs=suggestion.target_epochs,
                                hooks=hooks,
                                contention=spec.contention,
                                setup_cost_s=spec.trial_setup_s,
                                oom_threshold=spec.oom_threshold,
                            )
                        ),
                    )
                )
            yield self.env.all_of([proc for _, proc in processes])
            for suggestion, proc in processes:
                outcome = proc.value
                if isinstance(outcome, TrialFailure):
                    failures.append(outcome)
                    # the search algorithm sees a failed observation:
                    # worst possible score, so it is never promoted.
                    algorithm.report(
                        Observation(
                            trial_id=suggestion.trial_id,
                            score=float("-inf"),
                            epochs_run=suggestion.target_epochs,
                        )
                    )
                    continue
                result: TrialResult = outcome
                self._results[suggestion.trial_id] = result
                total_energy += result.energy_j
                score = spec.objective(result)
                algorithm.report(
                    Observation(
                        trial_id=suggestion.trial_id,
                        score=score,
                        epochs_run=result.epochs_run,
                    )
                )
                if score > best_score:
                    best_score = score
                    best_result = result
                timeline.append(
                    TimelinePoint(
                        wall_time_s=self.env.now - submitted,
                        trial_id=suggestion.trial_id,
                        trial_accuracy=result.accuracy,
                        trial_training_time_s=result.full_training_time_estimate(),
                        best_score=best_score,
                        best_accuracy=best_result.accuracy if best_result else 0.0,
                    )
                )

        finished = self.env.now
        return HptResult(
            job_name=spec.name or spec.workload.name,
            workload=spec.workload,
            best_hyper=best_result.hyper if best_result else None,
            best_system=best_result.final_system if best_result else None,
            best_accuracy=best_result.accuracy if best_result else 0.0,
            best_training_time_s=(
                best_result.full_training_time_estimate() if best_result else 0.0
            ),
            tuning_time_s=finished - submitted,
            tuning_energy_j=total_energy,
            submitted_at=submitted,
            finished_at=finished,
            trials=list(self._results.values()),
            timeline=timeline,
            failures=failures,
            fault_events=fault_events,
        )


def run_hpt_job(env: Environment, cluster: SimCluster, spec: HptJobSpec):
    """Convenience: spawn the runner and return its Process event."""
    return env.process(HptJobRunner(env, cluster, spec).run())
