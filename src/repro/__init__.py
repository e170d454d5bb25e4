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

The runner keeps no run state. To look into the PipeTune session (its
ground-truth database), run the plan's steps on a
:class:`~repro.scenarios.backends.ChainExecutor`, the one holder of
sessions, as ``examples/quickstart.py`` does.

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
  front door: every paper exhibit and novel experiment is registered
  as a frozen ScenarioRunner)
* :mod:`repro.experiments` — canonical exhibit parameters + golden
  traces

Every name below loads its subpackage on first use (PEP 562), so
``import repro`` alone loads neither numpy nor the simulator.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(
    globals(),
    {
        ".core": (
            "GroundTruth",
            "GroundTruthEntry",
            "KMeans",
            "PipeTuneConfig",
            "PipeTuneHooks",
            "PipeTuneSession",
            "ProbingController",
        ),
        ".scenarios": (
            "SCENARIO_REGISTRY",
            "Scenario",
            "ScenarioBuilder",
            "ScenarioError",
            "ScenarioRunner",
            "run_scenario",
        ),
        ".hpo": (
            "BayesianOptimisation",
            "GeneticSearch",
            "GridSearch",
            "HyperBand",
            "PopulationBasedTraining",
            "RandomSearch",
            "SearchSpace",
            "joint_space",
            "paper_hyper_space",
            "paper_system_space",
        ),
        ".simulation": ("EnergyMeter", "Environment", "PduSampler", "SimCluster"),
        ".tsdb": ("Point", "TimeSeriesStore"),
        ".tune": (
            "DEFAULT_SYSTEM",
            "HptJobSpec",
            "HptResult",
            "TrialHooks",
            "accuracy_objective",
            "accuracy_per_time_objective",
            "run_hpt_job",
            "run_trial",
        ),
        ".workloads": (
            "ALL_WORKLOADS",
            "CNN_NEWS20",
            "LENET_FASHION",
            "LENET_MNIST",
            "LSTM_NEWS20",
            "HyperParams",
            "SystemParams",
            "TrialConfig",
            "WorkloadSpec",
            "get_workload",
            "type12_workloads",
            "workloads_of_type",
        ),
    },
)
__all__.append("__version__")
