"""Declarative scenario API: one composable front door for experiments.

Declare *what* to run — workload x cluster x HPO algorithm x system
policy x objective x tenancy x failure injection x repetitions — as a
validated :class:`Scenario`; the :class:`ScenarioRunner` derives *how*
(spec construction, session sharing, execution order) through explicit
``plan -> validate -> execute -> collect`` phases. All 12 paper
exhibits and every novel experiment are entries in
:data:`SCENARIO_REGISTRY`; the CLI front end is
``repro scenario list|describe|run``.

Quick start::

    from repro.scenarios import Scenario, ScenarioRunner, pipetune, tune_v1

    scenario = (
        Scenario.builder("my-comparison")
        .workloads("lenet-mnist")
        .compare(tune_v1(), pipetune())
        .repetitions(2)
        .build()
    )
    table = ScenarioRunner(scenario).run(scale=1.0, seed=0)
    print(table.format_table())
"""

from .registry import (
    SCENARIO_REGISTRY,
    ScenarioDefinition,
    get_definition,
    register,
    run_scenario,
    scenario_names,
)
from .result import ExperimentResult
from .runner import (
    AnalysisStep,
    FixedTrialStep,
    JobStep,
    ScenarioPlan,
    ScenarioRunner,
    TraceStep,
    apply_space_overrides,
    build_job_spec,
    mean,
    metrics_by_system_collector,
    seeds_for,
    shared_tenancy_collector,
)
from .backends import (
    ChainExecutor,
    ProcessPoolBackend,
    SerialBackend,
    backend_for,
    execute_job,
    session_for_cluster,
)
from .cache import (
    CODE_VERSION,
    CacheStats,
    CachingBackend,
    NoSweepRuns,
    OutcomeCache,
    SweepRunStore,
    chain_key,
    compare_sweep_runs,
    record_sweep,
    resolve_cache_dir,
)
from .containment import ChainFailure, StepExecutionError, is_failure
from .merge import RunReport, merge_outcomes, run_reports
from .planner import ExecutionChain, chain_policy, partition
from .schema import collect_problems
from .views import (
    failure_view,
    jsonify,
    scenario_describe_payload,
    scenario_summary,
    sweep_summary,
)
from .spec import (
    ALGORITHM_BUILDERS,
    OBJECTIVES,
    PAPER_DISTRIBUTED_CLUSTER,
    PAPER_SINGLE_NODE,
    TRIAL_INIT_S,
    V2_SAMPLE_SCALE,
    V2_TRIAL_SETUP_S,
    AlgorithmSpec,
    ClusterSpec,
    FailureSpec,
    Scenario,
    ScenarioBuilder,
    ScenarioError,
    SystemPolicySpec,
    TenancySpec,
    fixed_trial,
    pipetune,
    tune_v1,
    tune_v2,
)

# importing these modules populates SCENARIO_REGISTRY (paper exhibits
# first, then the novel scenarios); sweeps come next because the
# built-in sweeps reference registered scenarios, and the hostile-world
# pack comes last because it registers both scenarios and a sweep.
from . import paper  # noqa: E402  (registration side effects)
from . import novel  # noqa: E402  (registration side effects)
from .sweep import (  # noqa: E402  (built-in sweeps need the registry)
    SWEEP_REGISTRY,
    Sweep,
    SweepAxis,
    SweepError,
    SweepResult,
    SweepVariant,
    VariantOutcome,
    get_sweep,
    register_sweep,
    run_sweep,
    sweep_names,
)
from . import hostile  # noqa: E402  (registration side effects)

__all__ = [
    "ALGORITHM_BUILDERS",
    "AnalysisStep",
    "AlgorithmSpec",
    "CODE_VERSION",
    "CacheStats",
    "CachingBackend",
    "ChainExecutor",
    "ChainFailure",
    "ClusterSpec",
    "ExecutionChain",
    "ExperimentResult",
    "FailureSpec",
    "FixedTrialStep",
    "JobStep",
    "NoSweepRuns",
    "OBJECTIVES",
    "OutcomeCache",
    "PAPER_DISTRIBUTED_CLUSTER",
    "PAPER_SINGLE_NODE",
    "ProcessPoolBackend",
    "RunReport",
    "SCENARIO_REGISTRY",
    "SWEEP_REGISTRY",
    "Scenario",
    "ScenarioBuilder",
    "ScenarioDefinition",
    "ScenarioError",
    "ScenarioPlan",
    "ScenarioRunner",
    "SerialBackend",
    "StepExecutionError",
    "Sweep",
    "SweepAxis",
    "SweepError",
    "SweepResult",
    "SweepRunStore",
    "SweepVariant",
    "SystemPolicySpec",
    "TRIAL_INIT_S",
    "TenancySpec",
    "TraceStep",
    "V2_SAMPLE_SCALE",
    "V2_TRIAL_SETUP_S",
    "VariantOutcome",
    "apply_space_overrides",
    "backend_for",
    "build_job_spec",
    "chain_key",
    "chain_policy",
    "collect_problems",
    "compare_sweep_runs",
    "execute_job",
    "failure_view",
    "fixed_trial",
    "get_definition",
    "get_sweep",
    "hostile",
    "is_failure",
    "jsonify",
    "mean",
    "merge_outcomes",
    "run_reports",
    "metrics_by_system_collector",
    "novel",
    "paper",
    "partition",
    "pipetune",
    "record_sweep",
    "register",
    "register_sweep",
    "resolve_cache_dir",
    "run_scenario",
    "run_sweep",
    "scenario_describe_payload",
    "scenario_names",
    "scenario_summary",
    "seeds_for",
    "session_for_cluster",
    "shared_tenancy_collector",
    "sweep_names",
    "sweep_summary",
    "tune_v1",
    "tune_v2",
]
