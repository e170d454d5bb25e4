"""repro — a full reproduction of PipeTune (Middleware 2020).

PipeTune pipelines *system-parameter* tuning (CPU cores, memory)
inside the epochs of each *hyperparameter*-tuning trial, reusing
performance-counter profiles of past jobs to skip probing for similar
workloads.

Quick start — one PipeTune job on the paper's 4-node testbed (the
default cluster), warm-started from the Type-I/II campaign::

    from repro import Scenario, ScenarioRunner
    from repro.scenarios import pipetune

    scenario = (
        Scenario.builder("quick-start")
        .workloads("lenet-mnist")
        .compare(pipetune())
        .build()
    )
    runner = ScenarioRunner(scenario)
    (result,) = runner.execute(runner.plan(seed=0))
    print(result.best_hyper, result.best_system)

Package map (README.md, "Layout", has the full inventory):

* :mod:`repro.simulation` — discrete-event cluster/power substrate
* :mod:`repro.counters`  — simulated PMU + epoch profiler
* :mod:`repro.workloads` — the 7 paper workloads and their models
* :mod:`repro.tsdb`      — embedded time-series store
* :mod:`repro.hpo`       — search algorithms (HyperBand et al.)
* :mod:`repro.tune`      — HPT-job runner and the V1/V2 baselines
* :mod:`repro.core`      — PipeTune itself (profiling/ground truth/probing)
* :mod:`repro.multitenancy` — FIFO multi-job scheduling
* :mod:`repro.ec2`       — Fig 1 cost model
* :mod:`repro.scenarios` — declarative scenario API + registry (the
  front door: every paper exhibit and novel experiment is a declared
  scenario run by the ScenarioRunner)
* :mod:`repro.experiments` — canonical exhibit parameters + golden
  traces
"""

from .core import (
    GroundTruth,
    GroundTruthEntry,
    KMeans,
    PipeTuneConfig,
    PipeTuneHooks,
    PipeTuneSession,
    ProbingController,
)
from .scenarios import (
    SCENARIO_REGISTRY,
    Scenario,
    ScenarioBuilder,
    ScenarioError,
    ScenarioRunner,
    run_scenario,
)
from .hpo import (
    BayesianOptimisation,
    GeneticSearch,
    GridSearch,
    HyperBand,
    PopulationBasedTraining,
    RandomSearch,
    SearchSpace,
    joint_space,
    paper_hyper_space,
    paper_system_space,
)
from .simulation import (
    EnergyMeter,
    Environment,
    PduSampler,
    SimCluster,
)
from .tsdb import Point, TimeSeriesStore
from .tune import (
    DEFAULT_SYSTEM,
    HptJobSpec,
    HptResult,
    TrialHooks,
    accuracy_objective,
    accuracy_per_time_objective,
    run_hpt_job,
    run_trial,
)
from .workloads import (
    ALL_WORKLOADS,
    CNN_NEWS20,
    LENET_FASHION,
    LENET_MNIST,
    LSTM_NEWS20,
    HyperParams,
    SystemParams,
    TrialConfig,
    WorkloadSpec,
    get_workload,
    type12_workloads,
    workloads_of_type,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "BayesianOptimisation",
    "CNN_NEWS20",
    "DEFAULT_SYSTEM",
    "EnergyMeter",
    "Environment",
    "GeneticSearch",
    "GridSearch",
    "GroundTruth",
    "GroundTruthEntry",
    "HptJobSpec",
    "HptResult",
    "HyperBand",
    "HyperParams",
    "KMeans",
    "LENET_FASHION",
    "LENET_MNIST",
    "LSTM_NEWS20",
    "PduSampler",
    "PipeTuneConfig",
    "PipeTuneHooks",
    "PipeTuneSession",
    "Point",
    "PopulationBasedTraining",
    "ProbingController",
    "RandomSearch",
    "SCENARIO_REGISTRY",
    "Scenario",
    "ScenarioBuilder",
    "ScenarioError",
    "ScenarioRunner",
    "SearchSpace",
    "SimCluster",
    "SystemParams",
    "TimeSeriesStore",
    "TrialConfig",
    "TrialHooks",
    "WorkloadSpec",
    "accuracy_objective",
    "accuracy_per_time_objective",
    "get_workload",
    "joint_space",
    "paper_hyper_space",
    "paper_system_space",
    "run_hpt_job",
    "run_scenario",
    "run_trial",
    "type12_workloads",
    "workloads_of_type",
    "__version__",
]
