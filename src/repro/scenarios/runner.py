"""ScenarioRunner: plan -> validate -> execute -> collect.

The runner turns a declarative :class:`~repro.scenarios.spec.Scenario`
into work, in four explicit phases:

* **plan** — enumerate every unit of work (one HPT job, one fixed
  training trial, one multi-tenant trace, or one analysis routine) as
  a :class:`ScenarioPlan` of typed steps, in a deterministic order;
* **validate** — the scenario's declarative validation plus plan-level
  checks, all failures reported at once;
* **execute** — run the plan's dependency chains
  (:mod:`~repro.scenarios.planner`) through a pluggable *execution
  backend* (:mod:`~repro.scenarios.backends`): the default
  :class:`~repro.scenarios.backends.SerialBackend` runs them in this
  process, while :class:`~repro.scenarios.backends.ProcessPoolBackend`
  (``workers > 1``) fans them out over a worker pool. Either
  way each step gets a freshly built cluster, and PipeTune policies
  share one long-lived session per policy across all of their
  dedicated-tenancy steps (the ground-truth database is the whole
  point) while every shared-tenancy trace gets its own;
* **collect** — fold the step outcomes — merged back into plan order
  whatever the backend did — into one
  :class:`~repro.scenarios.result.ExperimentResult` table.

Execution reproduces the committed golden traces byte-for-byte: every
job spec comes from :func:`build_job_spec`, and the random streams are
counter-keyed on spec reprs and trial ids, so they are unchanged
under any backend and any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..hpo.space import Choice, SearchSpace, joint_space, paper_hyper_space
from ..tune.runner import HptJobSpec
from ..workloads.registry import get_workload
from ..workloads.spec import WorkloadSpec
from .containment import is_failure
from .options import scale_problem
from .result import ExperimentResult
from .spec import (
    OBJECTIVES,
    Scenario,
    ScenarioError,
    SystemPolicySpec,
)


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def seeds_for(scale: float, full: int) -> List[int]:
    """Seed list shrunk by the experiment's scale factor (at least one)."""
    count = max(1, int(round(full * scale)))
    return list(range(count))


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobStep:
    """One HPT job on a dedicated cluster."""

    workload: WorkloadSpec
    policy: SystemPolicySpec
    seed: int

    @property
    def label(self) -> str:
        return f"{self.workload.name}/{self.policy.label}/seed{self.seed}"

    def describe(self) -> str:
        return f"job   {self.label}"


@dataclass(frozen=True)
class FixedTrialStep:
    """One plain training trial (no tuning) on a dedicated cluster."""

    workload: WorkloadSpec
    policy: SystemPolicySpec
    seed: int

    @property
    def label(self) -> str:
        return f"{self.workload.name}/{self.policy.label}/seed{self.seed}"

    def describe(self) -> str:
        return f"trial {self.label}"


@dataclass(frozen=True)
class TraceStep:
    """One multi-tenant arrival trace on a shared cluster."""

    policy: SystemPolicySpec
    num_jobs: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.policy.label}/{self.num_jobs}jobs/seed{self.seed}"

    def describe(self) -> str:
        return f"trace {self.label}"


@dataclass(frozen=True)
class AnalysisStep:
    """One analytic/profiling routine producing a result table."""

    name: str
    fn: Callable[[float, int], ExperimentResult]

    @property
    def label(self) -> str:
        return self.name

    def describe(self) -> str:
        return f"analysis {self.name}"


Step = Union[JobStep, FixedTrialStep, TraceStep, AnalysisStep]


@dataclass(frozen=True)
class ScenarioPlan:
    """The deterministic work list of one scenario run."""

    scenario: Scenario
    scale: float
    seed: int
    seeds: Tuple[int, ...]
    steps: Tuple[Step, ...]

    def chains(self):
        """The plan's execution chains (see :mod:`~repro.scenarios.
        planner`): steps sharing a PipeTune session form one ordered
        chain, everything else is independent. This is exactly what a
        parallel backend schedules, so the decomposition is
        inspectable before anything runs."""
        from .planner import partition  # late import: planner imports us

        return partition(self)

    def describe(self) -> List[str]:
        """One line per step, annotated with its execution chain."""
        from .planner import chain_of_step

        chains = self.chains()
        lookup = chain_of_step(chains)
        width = max((len(step.describe()) for step in self.steps), default=0)
        lines = []
        for position, step in enumerate(self.steps):
            chain = lookup[position]
            marker = f"chain {chain.index}"
            if chain.shares_session:
                marker += " (shared session)"
            lines.append(f"{step.describe():<{width}}  [{marker}]")
        return lines


#: builds the steps of one scenario run; analysis scenarios override it.
PlanFn = Callable[[Scenario, float, int], Sequence[Step]]
#: folds step outcomes back into one table.
Collector = Callable[[ScenarioPlan, List], ExperimentResult]


# ---------------------------------------------------------------------------
# Declarative -> concrete: spaces, specs, sessions
# ---------------------------------------------------------------------------


def apply_space_overrides(space: SearchSpace, overrides) -> SearchSpace:
    """Pin existing search dimensions to explicit choice lists.

    Overriding a dimension the space does not have is an error (it
    would silently *add* a search axis); scenario validation rejects
    it per workload, this is the runtime backstop.
    """
    if not overrides:
        return space
    domains = dict(space.domains)
    for param, choices in overrides:
        if param not in domains:
            raise KeyError(
                f"space override {param!r} is not a dimension of this space "
                f"(has: {list(domains)})"
            )
        domains[param] = Choice(list(choices))
    return SearchSpace(domains)


def _policy_space(policy: SystemPolicySpec, workload: WorkloadSpec) -> SearchSpace:
    nlp = workload.uses_embedding
    base = joint_space(nlp=nlp) if policy.kind == "v2" else paper_hyper_space(nlp=nlp)
    return apply_space_overrides(base, policy.space_overrides)


def build_job_spec(
    scenario: Scenario,
    policy: SystemPolicySpec,
    workload: WorkloadSpec,
    seed: int,
    session=None,
) -> HptJobSpec:
    """The HptJobSpec one (policy, workload, seed) cell resolves to.

    This is the only place a paper job is built. Byte-compatibility
    contract: the spec's name (``<kind>-<workload>`` unless the policy
    names it), search space, objective, setup cost and algorithm seed
    key every trial id and random stream, so changing any of them
    changes the committed goldens; ``tests/test_harness.py`` pins them
    for the paper's hyperband scenarios on both testbeds.
    """
    space = _policy_space(policy, workload)
    algorithm = scenario.algorithm
    sample_scale = policy.effective_sample_scale

    def algorithm_factory():
        return algorithm.build(space, seed=seed, sample_scale=sample_scale)

    common: Dict = {
        "contention": policy.contention,
        "max_concurrent": scenario.max_concurrent_trials,
        "trial_setup_s": policy.effective_trial_setup_s,
    }
    if scenario.failures.oom_threshold is not None:
        common["oom_threshold"] = scenario.failures.oom_threshold
    # faults ride along only when declared — a fault-free scenario
    # builds byte-identical specs (and streams) to the historical ones.
    fault_model = scenario.failures.fault_model()
    if fault_model is not None:
        common["faults"] = fault_model
    if scenario.failures.retry is not None:
        common["retry"] = scenario.failures.retry
    if policy.kind == "pipetune":
        if session is None:
            raise ValueError("pipetune policy needs a session")
        kwargs = dict(common)
        if policy.name:
            kwargs["name"] = policy.name
        return session.job_spec(workload, algorithm_factory, **kwargs)
    return HptJobSpec(
        workload=workload,
        algorithm_factory=algorithm_factory,
        objective=OBJECTIVES[policy.effective_objective],
        system_policy=policy.kind,
        name=policy.name or f"{policy.kind}-{workload.name}",
        **common,
    )


# ---------------------------------------------------------------------------
# Default collectors
# ---------------------------------------------------------------------------


def _grouped_jobs(plan: ScenarioPlan, outcomes: List):
    """Consecutive (workload, policy) groups of job/trial outcomes,
    in plan order — one group per future table row family. Contained
    :class:`~repro.scenarios.containment.ChainFailure` outcomes are
    excluded: the surviving runs still aggregate (a cell whose every
    run failed simply produces no row)."""
    groups: List[Tuple[WorkloadSpec, SystemPolicySpec, List]] = []
    for step, outcome in zip(plan.steps, outcomes):
        if not isinstance(step, (JobStep, FixedTrialStep)) or is_failure(outcome):
            continue
        if (
            groups
            and groups[-1][0] == step.workload
            and groups[-1][1] == step.policy
        ):
            groups[-1][2].append(outcome)
        else:
            groups.append((step.workload, step.policy, [outcome]))
    return groups


def metrics_by_system_collector(
    exhibit: Optional[str] = None,
    title: Optional[str] = None,
    notes_fn: Optional[Callable[[ScenarioPlan], str]] = None,
) -> Collector:
    """Generic accuracy/training/tuning/energy table (Fig 11/12 shape)."""

    def collect(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
        scenario = plan.scenario
        notes = (
            notes_fn(plan)
            if notes_fn
            else f"mean over {len(plan.seeds)} seeds; dedicated cluster per job"
        )
        failed = sum(1 for outcome in outcomes if is_failure(outcome))
        if failed:
            notes += f"; {failed} failed step(s) excluded"
        result = ExperimentResult(
            exhibit=exhibit or scenario.exhibit or scenario.name,
            title=title or scenario.title or scenario.name,
            columns=[
                "workload",
                "system",
                "accuracy_pct",
                "training_time_s",
                "tuning_time_s",
                "tuning_energy_kj",
            ],
            notes=notes,
        )
        for workload, policy, runs in _grouped_jobs(plan, outcomes):
            result.add_row(
                workload=workload.name,
                system=policy.label,
                accuracy_pct=100.0 * mean(r.best_accuracy for r in runs),
                training_time_s=mean(r.best_training_time_s for r in runs),
                tuning_time_s=mean(r.tuning_time_s for r in runs),
                tuning_energy_kj=mean(r.tuning_energy_j for r in runs) / 1000.0,
            )
        return result

    return collect


def shared_tenancy_collector(
    exhibit: Optional[str] = None,
    title: Optional[str] = None,
    notes_fn: Optional[Callable[[ScenarioPlan], str]] = None,
) -> Collector:
    """Generic multi-tenancy table: response/queue/failures per system."""

    def collect(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
        scenario = plan.scenario
        tenancy = scenario.tenancy
        num_jobs = tenancy.scaled_jobs(plan.scale)
        notes = (
            notes_fn(plan)
            if notes_fn
            else (
                f"{num_jobs} jobs, exp. interarrival "
                f"{tenancy.mean_interarrival_s:.0f}s, "
                f"{tenancy.max_concurrent_jobs} concurrent jobs, "
                f"{100 * tenancy.unseen_fraction:.0f}% unseen"
            )
        )
        failed = sum(1 for outcome in outcomes if is_failure(outcome))
        if failed:
            notes += f"; {failed} failed step(s) excluded"
        result = ExperimentResult(
            exhibit=exhibit or scenario.exhibit or scenario.name,
            title=title or scenario.title or scenario.name,
            columns=[
                "system",
                "response_s",
                "queue_wait_s",
                "finished_trials",
                "failed_trials",
            ],
            notes=notes,
        )
        for step, trace in zip(plan.steps, outcomes):
            if not isinstance(step, TraceStep) or is_failure(trace):
                continue
            result.add_row(
                system=step.policy.label,
                response_s=trace.mean_response_time_s(),
                queue_wait_s=trace.mean_queue_wait_s(),
                finished_trials=sum(r.result.num_trials for r in trace.records),
                failed_trials=sum(r.result.num_failures for r in trace.records),
            )
        return result

    return collect


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioRunner:
    """One scenario and its run-time couplings; the registry entry.

    ``collector`` defaults to the generic table of the scenario's
    tenancy mode, ``plan_fn`` to the declarative plan. The runner holds
    no run state, so one instance serves concurrent runs; a run's
    PipeTune sessions live in the :class:`~repro.scenarios.backends.
    ChainExecutor` that runs its chains.
    """

    scenario: Scenario
    collector: Optional[Collector] = None
    plan_fn: Optional[PlanFn] = None
    source: str = "user"

    # -- phase 1: plan ------------------------------------------------------
    def plan(self, scale: float = 1.0, seed: int = 0) -> ScenarioPlan:
        """The run's steps; a scale :func:`scale_problem` rejects is a
        :class:`ScenarioError`."""
        scenario = self.scenario
        problem = scale_problem(scale)
        if problem:
            raise ScenarioError(scenario.name, [problem])
        seeds = tuple(seed + s for s in seeds_for(scale, scenario.repetitions))
        steps = tuple(self._steps(scale, seed, seeds))
        return ScenarioPlan(
            scenario=scenario, scale=scale, seed=seed, seeds=seeds, steps=steps
        )

    def _steps(self, scale: float, seed: int, seeds: Tuple[int, ...]) -> List[Step]:
        scenario = self.scenario
        if self.plan_fn is not None:
            return list(self.plan_fn(scenario, scale, seed))
        if scenario.tenancy.shared:
            num_jobs = scenario.tenancy.scaled_jobs(scale)
            return [
                TraceStep(policy=policy, num_jobs=num_jobs, seed=seed)
                for policy in scenario.systems
            ]
        steps: List[Step] = []
        for name in scenario.workloads:
            workload = get_workload(name)
            for policy in scenario.systems:
                step_cls = FixedTrialStep if policy.kind == "fixed" else JobStep
                steps.extend(
                    step_cls(workload=workload, policy=policy, seed=s) for s in seeds
                )
        return steps

    # -- phase 2: validate --------------------------------------------------
    def validate(self, plan: Optional[ScenarioPlan] = None) -> None:
        issues = self.scenario.problems()
        if self.scenario.kind == "analysis" and self.plan_fn is None:
            issues.append("analysis scenario needs a plan function")
        if plan is not None and not plan.steps:
            issues.append("plan resolved to zero steps")
        if issues:
            raise ScenarioError(self.scenario.name, issues)

    # -- phase 3: execute ---------------------------------------------------
    def execute(
        self,
        plan: ScenarioPlan,
        workers: Optional[int] = None,
        backend=None,
    ) -> List:
        """The plan's raw outcomes in plan order: the one-plan case of
        :func:`~repro.scenarios.merge.run_plans`. ``workers`` picks the
        backend (serial up to 1, else a pool of that size); an explicit
        ``backend`` (anything with ``run_chains(tasks)``) overrides it.
        """
        from .backends import backend_for  # late import: backends imports us
        from .merge import run_plans

        if backend is None:
            backend = backend_for(workers)
        ((_, outcomes, _),) = run_plans(backend, [plan])
        return outcomes

    # -- phase 4: collect ---------------------------------------------------
    def collect(self, plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
        collector = self.collector
        if collector is None:
            shared = self.scenario.tenancy.shared
            collector = (
                shared_tenancy_collector() if shared else metrics_by_system_collector()
            )
        return collector(plan, outcomes)

    # -- all phases ---------------------------------------------------------
    def run(
        self,
        scale: float = 1.0,
        seed: int = 0,
        workers: Optional[int] = None,
        backend=None,
    ) -> ExperimentResult:
        """All four phases: the one-plan case of :func:`~repro.scenarios.
        merge.run_reports`, on the backend :meth:`execute` would use."""
        from .backends import backend_for  # late import: backends imports us
        from .merge import run_reports

        plan = self.plan(scale=scale, seed=seed)
        self.validate(plan)
        if backend is None:
            backend = backend_for(workers)
        (report,) = run_reports(backend, [(self, plan)])
        return report.unwrap()
