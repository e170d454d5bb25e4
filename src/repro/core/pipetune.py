"""PipeTune: pipelined tuning of hyper and system parameters.

This module implements Algorithm 1 of the paper. A
:class:`PipeTuneSession` owns the ground-truth database and hands out
:class:`PipeTuneHooks` for every training trial an HPT job spawns. The
hook runs the per-trial pipeline at epoch granularity:

1. **profiling** — the first epoch(s) run under the PMU profiler
   (small overhead), producing the trial's feature vector;
2. **ground truth** — the k-means similarity function is
   applied; a hit applies the stored best system configuration and
   skips probing entirely;
3. **probing** — on a miss, each candidate system configuration is
   applied for one epoch and scored by the system-level optimisation
   function (shortest runtime by default, energy as an alternative);
4. **run-out** — the winning configuration is applied for the
   remaining epochs and stored in the ground-truth database for
   future jobs.

All of this happens *inside* a normally-progressing training trial —
probe epochs are real training epochs — which is the paper's pipeline
parallelism. The hyperparameter level above is untouched: PipeTune
keeps the accuracy-only objective of Tune V1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..counters.profiler import EpochProfiler, average_profiles
from ..hpo.algorithms import SearchAlgorithm
from ..tune.objectives import accuracy_objective, runtime_system_objective
from ..tune.runner import DEFAULT_SYSTEM, HptJobSpec
from ..tune.trainer import TrialContext, TrialHooks
from ..tune.trial import EpochRecord, TrialResult
from ..workloads.perfmodel import active_cores, epoch_cost, epoch_cost_batch
from ..workloads.spec import (
    PAPER_BATCH_GRID,
    PAPER_CORE_GRID,
    PAPER_MEMORY_GRID_GB,
    HyperParams,
    SystemParams,
    TrialConfig,
    WorkloadSpec,
)
from .groundtruth import GroundTruth, GroundTruthEntry
from .probing import ProbeSample, ProbingController, SystemObjective

#: epochs profiled before the ground-truth lookup (paper profiles
#: "across the first couple of epochs"; one is enough here because the
#: simulated profile noise is small).
PROFILE_EPOCHS = 1
#: hard cap on probe epochs per trial.
MAX_PROBES = 6
#: epochs that must remain after probing for it to be worthwhile.
MIN_EPOCHS_AFTER_PROBE = 1
#: times the offline campaign trains each (workload, batch) point
#: (§7.2: every configuration "twice").
WARM_START_REPETITIONS = 2


@dataclass(slots=True)
class PipeTuneConfig:
    """The switches and grids a PipeTune session is run with.

    The pipeline's fixed values are the module constants above; the
    similarity model is :class:`GroundTruth` (k-means with the paper's
    k = 2). Slotted, so a write to a field that does not exist raises
    instead of being ignored.
    """

    #: ablation switch: disable ground-truth reuse (always probe).
    use_ground_truth: bool = True
    #: ablation switch: non-pipelined variant makes every tuning
    #: decision on the critical path, costing this many seconds per
    #: profiled/probed epoch.
    decision_delay_s: float = 5.0
    pipelined: bool = True
    #: system-parameter candidates.
    cores_grid: Sequence[int] = PAPER_CORE_GRID
    memory_grid_gb: Sequence[float] = PAPER_MEMORY_GRID_GB
    #: system-level optimisation function (runtime by default).
    system_objective: SystemObjective = runtime_system_objective


@dataclass
class PipeTuneStats:
    """Session-wide accounting (exposed in experiment reports)."""

    trials: int = 0
    ground_truth_hits: int = 0
    ground_truth_misses: int = 0
    probes_run: int = 0
    probing_trials: int = 0
    entries_stored: int = 0
    reconfigurations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.ground_truth_hits + self.ground_truth_misses
        return self.ground_truth_hits / total if total else 0.0


class PipeTuneHooks(TrialHooks):
    """Per-trial pipeline state machine (Algorithm 1)."""

    PROFILE = "profile"
    PROBE = "probe"
    RUN = "run"

    def __init__(self, session: "PipeTuneSession", workload: WorkloadSpec):
        self.session = session
        self.workload = workload
        self.state = self.PROFILE
        self._profiles: List = []
        self._features: Optional[np.ndarray] = None
        self._controller: Optional[ProbingController] = None
        self._target_system: Optional[SystemParams] = None
        self._probed = False
        self._epochs_total = 0
        self._epochs_seen = 0
        self._start_hint_used = False

    # -- hook interface ------------------------------------------------------
    def on_start(self, ctx: TrialContext) -> None:
        self.session.stats.trials += 1

    def wants_profiling(self, ctx: TrialContext, epoch: int) -> bool:
        return self.state == self.PROFILE

    def is_probe_epoch(self, ctx: TrialContext, epoch: int) -> bool:
        return self.state == self.PROBE

    def epoch_extra_delay_s(self, ctx: TrialContext, epoch: int) -> float:
        if self.session.config.pipelined:
            return 0.0
        if self.state in (self.PROFILE, self.PROBE):
            return self.session.config.decision_delay_s
        return 0.0

    def before_epoch(self, ctx: TrialContext, epoch: int) -> Optional[SystemParams]:
        self._epochs_total = max(self._epochs_total, epoch)
        if self.state == self.PROFILE and not self._start_hint_used:
            # Sibling trials of the same session already resolved this
            # workload: start at the known-good shape and let the
            # profile/ground-truth pipeline refine it (§5.1 "jobs could
            # benefit from previously computed results ... to converge
            # faster").
            self._start_hint_used = True
            hint = self.session.start_hint(self.workload)
            if hint is not None and hint != ctx.system:
                self.session.stats.reconfigurations += 1
                return hint
        if self.state == self.PROBE and self._controller is not None:
            config = self._controller.next_config()
            if config is not None:
                clipped = self.session.clip_to_cluster(config)
                if clipped != config:
                    # Infeasible on this cluster; skip by recording a
                    # poison sample so it never wins.
                    self._controller.record(
                        ProbeSample(
                            system=config,
                            duration_s=float("inf"),
                            energy_j=float("inf"),
                        )
                    )
                    return self.before_epoch(ctx, epoch)
                self.session.stats.probes_run += 1
                return config
            # plan exhausted: decide now
            self._finish_probing(ctx)
        if self._target_system not in (None, ctx.system):
            self.session.stats.reconfigurations += 1
            return self._target_system
        return None

    def after_epoch(self, ctx: TrialContext, record: EpochRecord) -> None:
        self._epochs_seen = record.epoch
        if self.state == self.PROFILE and record.profile is not None:
            self._profiles.append(record.profile)
            if len(self._profiles) >= PROFILE_EPOCHS:
                self._features = average_profiles(self._profiles)
                self._decide_after_profiling(ctx, record)
        elif self.state == self.PROBE and self._controller is not None:
            if record.probed:
                self._controller.record(
                    ProbeSample(
                        system=record.system,
                        duration_s=record.duration_s,
                        energy_j=record.energy_j,
                    )
                )
            remaining = self._remaining_epochs(ctx)
            if self._controller.exhausted or remaining <= MIN_EPOCHS_AFTER_PROBE:
                self._finish_probing(ctx)

    def on_end(self, ctx: TrialContext, result: TrialResult) -> None:
        if self.state == self.PROBE:
            # trial ended mid-probe (short rung): still learn from it
            self._finish_probing(ctx, store=self._controller is not None
                                 and self._controller.probes_run > 0)

    # -- pipeline steps ------------------------------------------------------
    def _remaining_epochs(self, ctx: TrialContext) -> int:
        return max(0, self._epochs_total_guess(ctx) - self._epochs_seen)

    def _epochs_total_guess(self, ctx: TrialContext) -> int:
        # the trainer iterates to the trial's target; hyper.epochs is
        # the workload-level setting, HyperBand rungs may be shorter.
        if ctx.target_epochs:
            return ctx.target_epochs
        return max(self._epochs_total, ctx.hyper.epochs)

    def _decide_after_profiling(self, ctx: TrialContext, record: EpochRecord) -> None:
        session = self.session
        match = None
        if session.config.use_ground_truth:
            match = session.ground_truth.query(self._features)
        if match is not None:
            session.stats.ground_truth_hits += 1
            self._target_system = session.clip_to_cluster(match.system)
            session.set_start_hint(self.workload, self._target_system)
            self.state = self.RUN
            return
        session.stats.ground_truth_misses += 1
        remaining = self._remaining_epochs(ctx)
        budget = min(MAX_PROBES, remaining - MIN_EPOCHS_AFTER_PROBE)
        if budget < 1:
            # Too few epochs to probe: stay at the current system.
            self.state = self.RUN
            return
        session.stats.probing_trials += 1
        self._probed = True
        # Seed the controller with the metrics of the profiled epoch so
        # the current configuration competes without a second epoch.
        self._controller = ProbingController(
            initial=ctx.system,
            cores_grid=session.config.cores_grid,
            memory_grid_gb=session.config.memory_grid_gb,
            max_probes=budget,
            objective=session.config.system_objective,
        )
        self.state = self.PROBE

    def _finish_probing(self, ctx: TrialContext, store: bool = True) -> None:
        assert self._controller is not None
        best = self._controller.best_system()
        self._target_system = self.session.clip_to_cluster(best)
        self.session.set_start_hint(self.workload, self._target_system)
        self.state = self.RUN
        if store and self._features is not None:
            self.session.ground_truth.add(
                GroundTruthEntry(
                    features=self._features,
                    best_system=self._target_system,
                    objective_value=max(
                        (
                            self.session.config.system_objective(
                                s.duration_s, s.energy_j
                            )
                            for s in self._controller.samples
                            if np.isfinite(s.duration_s)
                        ),
                        default=0.0,
                    ),
                    workload_name=self.workload.name,
                    created_at=ctx.env.now,
                )
            )
            self.session.stats.entries_stored += 1


class PipeTuneSession:
    """Long-lived PipeTune middleware instance.

    Persistent across HPT jobs (the whole point of ground truth); in a
    multi-tenant deployment one session serves every job on the
    cluster.
    """

    def __init__(
        self,
        config: Optional[PipeTuneConfig] = None,
        max_cores: int = 16,
        max_memory_gb: float = 32.0,
        seed: int = 0,
    ):
        self.config = config or PipeTuneConfig()
        self.max_cores = max_cores
        self.max_memory_gb = max_memory_gb
        self.ground_truth = GroundTruth(seed=seed)
        self.stats = PipeTuneStats()
        #: per-workload cache of the configuration the session resolved
        #: most recently; used only as the *starting* shape of sibling
        #: trials (profiling + ground truth still run and refine it).
        self._start_hints: dict = {}

    def start_hint(self, workload: WorkloadSpec) -> Optional[SystemParams]:
        return self._start_hints.get(workload.name)

    def set_start_hint(self, workload: WorkloadSpec, system: SystemParams) -> None:
        self._start_hints[workload.name] = system

    # -- plumbing -------------------------------------------------------------
    def clip_to_cluster(self, system: SystemParams) -> SystemParams:
        cores = min(system.cores, self.max_cores)
        memory = min(system.memory_gb, self.max_memory_gb)
        if cores == system.cores and memory == system.memory_gb:
            return system
        return SystemParams(cores=cores, memory_gb=memory)

    def hooks_factory(
        self,
        trial_id: str,
        workload: WorkloadSpec,
        hyper: HyperParams,
        system: SystemParams,
    ) -> PipeTuneHooks:
        return PipeTuneHooks(self, workload)

    def job_spec(
        self,
        workload: WorkloadSpec,
        algorithm_factory: Callable[[], SearchAlgorithm],
        default_system: SystemParams = DEFAULT_SYSTEM,
        name: str = "",
        **kwargs,
    ) -> HptJobSpec:
        """An :class:`HptJobSpec` running this session's pipeline.

        The hyperparameter level mirrors Tune V1: ``algorithm_factory``
        searches the hyperparameters under the accuracy objective.
        """
        return HptJobSpec(
            workload=workload,
            algorithm_factory=algorithm_factory,
            objective=accuracy_objective,
            system_policy="hooks",
            default_system=self.clip_to_cluster(default_system),
            hooks_factory=self.hooks_factory,
            name=name or f"pipetune-{workload.name}",
            **kwargs,
        )

    # -- warm start --------------------------------------------------------------
    def warm_start(self, workloads: Sequence[WorkloadSpec]) -> int:
        """Seed ground truth from an offline probing campaign (§7.2).

        The paper builds its initial similarity model by training every
        Table-3 workload under 48 system/batch configurations, twice.
        We reproduce that campaign analytically: profile each
        (workload, batch) point, evaluate the full system grid with the
        performance model, and store the winning configuration. The
        campaign is pure in its inputs, so it runs once per (workload,
        batch, cluster shape) per process (:func:`offline_campaign`);
        each session still adds its own entries and fits its own model.
        """
        # Read now: session_for_cluster trims the grids after construction.
        shape = (
            WARM_START_REPETITIONS,
            self.clip_to_cluster(DEFAULT_SYSTEM),
            tuple(c for c in self.config.cores_grid if c <= self.max_cores),
            tuple(m for m in self.config.memory_grid_gb if m <= self.max_memory_gb),
            self.config.system_objective,
            self.max_cores,
        )
        added = 0
        for workload in workloads:
            for batch in PAPER_BATCH_GRID:
                hyper = HyperParams(batch_size=batch)
                features, best = offline_campaign(workload, hyper, *shape)
                self.ground_truth.add(
                    GroundTruthEntry(
                        features=features,
                        best_system=best,
                        workload_name=workload.name,
                        created_at=0.0,
                    )
                )
                added += 1
        self.ground_truth.refit()
        return added


def offline_campaign(
    workload: WorkloadSpec,
    hyper: HyperParams,
    repetitions: int,
    initial_system: SystemParams,
    cores_grid: Tuple[int, ...],
    memory_grid_gb: Tuple[float, ...],
    system_objective: SystemObjective,
    max_cores: int,
) -> Tuple[np.ndarray, SystemParams]:
    """One (workload, batch) point of the §7.2 offline campaign: the raw
    profile features at ``initial_system`` (read-only, as sessions share
    them) and the best system of the grid sweep. Memoized per process on
    the arguments' reprs, which key the RNG streams it reads: ``24`` and
    ``24.0`` are equal but key different streams."""
    args = (workload, hyper, repetitions, initial_system)
    args += (cores_grid, memory_grid_gb, system_objective, max_cores)
    return _offline_campaign(repr(args), args)


@lru_cache(maxsize=256)
def _offline_campaign(key: str, args: tuple) -> Tuple[np.ndarray, SystemParams]:
    workload, hyper, repetitions, initial, cores, memory, objective, max_cores = args
    profile = EpochProfiler().profile_epoch
    config = TrialConfig(workload, hyper, initial)
    profiles = []
    for rep in range(max(1, repetitions)):
        cost = epoch_cost(config, epoch=rep)
        profiles.append(profile(config, rep, cost.total_s, active_cores(config, cost)))
    features = average_profiles(profiles)
    features.setflags(write=False)
    controller = ProbingController(
        initial=initial,
        cores_grid=cores,
        memory_grid_gb=memory,
        max_probes=10**6,
        objective=objective,
    )
    epoch_index = 0
    while (candidate := controller.next_config()) is not None:
        config = TrialConfig(workload, hyper, candidate)
        # Energy model mirrors the trainer's attribution; the idle
        # draw depends only on the candidate, not the repetition.
        # One batch reads every repetition from one noise fill.
        idle_draw_w = 60.0 * candidate.cores / max_cores
        first = 1000 + epoch_index * 10
        costs = epoch_cost_batch(config, range(first, first + max(1, repetitions)))
        busy = active_cores(config, costs)
        durations = costs.total_s
        energies = [(busy * 11.5 + idle_draw_w) * total for total in durations]
        controller.record(
            ProbeSample(
                system=candidate,
                duration_s=float(np.mean(durations)),
                energy_j=float(np.mean(energies)),
            )
        )
        epoch_index += 1
    return features, controller.best_system()
