"""Declarative scenario API: one composable front door for experiments.

Declare *what* to run — workload x cluster x HPO algorithm x system
policy x objective x tenancy x failure injection x repetitions — as a
validated :class:`Scenario`; the :class:`ScenarioRunner` derives *how*
(spec construction, session sharing, execution order) through explicit
``plan -> validate -> execute -> collect`` phases. A runner is frozen
and stateless: :data:`SCENARIO_REGISTRY` maps the name of each of the
12 paper exhibits and every novel experiment to its runner, and one
runner serves concurrent runs. The CLI front end is
``repro scenario list|describe|run``. Each name below loads its
submodule on first use; the registry module loads the catalogue.

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

from .._lazy import lazy_exports

__all__ = lazy_exports(
    globals(),
    {
        ".registry": (
            "SCENARIO_REGISTRY",
            "SWEEP_REGISTRY",
            "get_definition",
            "get_sweep",
            "register",
            "register_sweep",
            "run_scenario",
            "scenario_names",
        ),
        ".result": ("ExperimentResult",),
        ".runner": (
            "AnalysisStep",
            "FixedTrialStep",
            "JobStep",
            "ScenarioPlan",
            "ScenarioRunner",
            "TraceStep",
            "apply_space_overrides",
            "build_job_spec",
            "mean",
            "metrics_by_system_collector",
            "seeds_for",
            "shared_tenancy_collector",
        ),
        ".backends": (
            "ChainExecutor",
            "ProcessPoolBackend",
            "SerialBackend",
            "backend_for",
            "execute_job",
            "session_for_cluster",
        ),
        ".cache": (
            "CODE_VERSION",
            "CacheStats",
            "CachingBackend",
            "NoSweepRuns",
            "OutcomeCache",
            "SweepRunStore",
            "chain_key",
            "compare_sweep_runs",
            "record_sweep",
        ),
        ".options": ("resolve_cache_dir",),
        ".containment": ("ChainFailure", "StepExecutionError", "is_failure"),
        ".merge": ("RunReport", "merge_outcomes", "run_reports"),
        ".planner": ("ExecutionChain", "chain_policy", "partition"),
        ".views": (
            "failure_view",
            "jsonify",
            "scenario_describe_payload",
            "scenario_summary",
            "sweep_summary",
        ),
        ".spec": (
            "ALGORITHM_BUILDERS",
            "OBJECTIVES",
            "PAPER_DISTRIBUTED_CLUSTER",
            "PAPER_SINGLE_NODE",
            "TRIAL_INIT_S",
            "V2_SAMPLE_SCALE",
            "V2_TRIAL_SETUP_S",
            "AlgorithmSpec",
            "ClusterSpec",
            "FailureSpec",
            "Scenario",
            "ScenarioBuilder",
            "ScenarioError",
            "SystemPolicySpec",
            "TenancySpec",
            "fixed_trial",
            "pipetune",
            "tune_v1",
            "tune_v2",
        ),
        ".sweep": (
            "Sweep",
            "SweepAxis",
            "SweepError",
            "SweepResult",
            "SweepVariant",
            "VariantOutcome",
            "run_sweep",
        ),
        # the built-in catalogue modules (importing any one, or the
        # registry, registers all of them: see registry.py)
        ".paper": ("paper",),
        ".novel": ("novel",),
        ".hostile": ("hostile",),
    },
)
