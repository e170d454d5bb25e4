"""The 12 paper exhibits, declared as scenarios.

Each of the paper's tables/figures (§7) is one registry entry: a
declarative :class:`~repro.scenarios.spec.Scenario` plus a collector
that folds the step outcomes into the exhibit's table. The committed
golden traces under ``benchmarks/results/`` regenerate byte-for-byte
through these definitions (CI's exhibits job proves it on every push).

Four exhibits (Figs 1, 2, 3, 8) are analytic/profiling measurements
rather than tuning-job comparisons; they register as ``analysis``
scenarios whose plan is a single measurement routine defined here.
"""

from __future__ import annotations

from importlib import import_module
from typing import List, Tuple

import numpy as np

from ..core.clustering import KMeans
from ..counters.events import EVENT_NAMES
from ..counters.profiler import EpochProfiler
from ..ec2.pricing import PAPER_INSTANCES, cost_table
from ..simulation.cluster import NodeSpec, SimCluster
from ..simulation.des import Environment
from ..simulation.power import EnergyMeter
from ..tune.trainer import run_trial
from ..workloads.perfmodel import active_cores, epoch_cost
from ..workloads.registry import CNN_NEWS20, LENET_MNIST, type12_workloads
from ..workloads.spec import (
    PAPER_BATCH_GRID,
    HyperParams,
    SystemParams,
    TrialConfig,
)
from .registry import register
from .result import ExperimentResult
from .runner import (
    AnalysisStep,
    ScenarioPlan,
    TraceStep,
    _grouped_jobs,
    mean,
    metrics_by_system_collector,
)
from .spec import Scenario, fixed_trial, pipetune, tune_v1, tune_v2

# ---------------------------------------------------------------------------
# Figure 1 — analytic cost model
# ---------------------------------------------------------------------------


def fig01_table(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate Fig 1's rows (scale/seed unused: analytic exhibit)."""
    max_params = max(1, int(round(6 * min(1.0, scale)))) if scale < 1.0 else 6
    parameters = list(range(1, max_params + 1))
    result = ExperimentResult(
        exhibit="Figure 1",
        title="Grid-search tuning time and EC2 cost vs tuned parameters",
        columns=["parameters", "trials"]
        + [f"{inst.name}/hours" for inst in PAPER_INSTANCES]
        + [f"{inst.name}/usd" for inst in PAPER_INSTANCES],
        notes=(
            "3 values per parameter, LeNet/MNIST; exponential growth in "
            "both tuning hours and dollars is the claim under test"
        ),
    )
    for row in cost_table(LENET_MNIST, parameters=parameters):
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Figure 2 — perf-event heatmap
# ---------------------------------------------------------------------------

#: Fig 2's colour-scale buckets (average events per epoch).
BUCKETS = (
    (1e8, "> 1e8"),
    (1e6, "1e8 - 1e6"),
    (1e4, "1e6 - 1e4"),
    (1e2, "1e4 - 1e2"),
    (0.0, "< 1e2"),
)


def bucket_label(events_per_epoch: float) -> str:
    for floor, label in BUCKETS:
        if events_per_epoch >= floor and floor > 0:
            return label
    return BUCKETS[-1][1]


def fig02_table(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Profile init + 5 epochs and tabulate per-event averages."""
    epochs = max(2, int(round(5 * min(1.0, scale)))) if scale < 1.0 else 5
    config = TrialConfig(
        CNN_NEWS20,
        HyperParams(batch_size=64, epochs=epochs),
        SystemParams(cores=16, memory_gb=32.0),
    )
    profiler = EpochProfiler()
    phases = ["init"] + [str(e) for e in range(1, epochs + 1)]
    matrix = np.zeros((len(EVENT_NAMES), len(phases)))
    for column, phase in enumerate(phases):
        epoch_index = 0 if phase == "init" else int(phase)
        cost = epoch_cost(config, epoch=epoch_index)
        duration = cost.total_s * (0.5 if phase == "init" else 1.0)
        busy = active_cores(config, cost) * (0.6 if phase == "init" else 1.0)
        profile = profiler.profile_epoch(config, epoch_index, duration, busy)
        matrix[:, column] = profile.events_per_epoch()

    result = ExperimentResult(
        exhibit="Figure 2",
        title="Performance-counter events averaged per epoch (CNN/News20)",
        columns=["event"] + [f"log10@{p}" for p in phases] + ["bucket", "cv"],
        notes=(
            "cv = coefficient of variation across training epochs; the "
            "paper's claim is that it stays small (repetitive behaviour)"
        ),
    )
    for i, event in enumerate(EVENT_NAMES):
        training_cols = matrix[i, 1:]
        cv = float(np.std(training_cols) / max(1e-12, np.mean(training_cols)))
        row = {
            "event": event,
            "bucket": bucket_label(float(np.mean(training_cols))),
            "cv": cv,
        }
        for column, phase in enumerate(phases):
            row[f"log10@{phase}"] = float(np.log10(1.0 + matrix[i, column]))
        result.add_row(**row)
    return result


# ---------------------------------------------------------------------------
# Figure 3 — parameter-impact trials
# ---------------------------------------------------------------------------

FIG03_EPOCHS = 10


def _fig03_train(
    batch_size: int, cores: int, memory_gb: float = 32.0
) -> Tuple[float, float, float]:
    """(accuracy, duration_s, energy_j) of one full training run.

    Energy is the node-level (PDU-view) trapezoidal integral over the
    run, matching how the paper measures Fig 3c — idle draw included.
    """
    env = Environment()
    cluster = SimCluster(env, [NodeSpec(name="n0", cores=16, memory_gb=64.0)])
    meter = EnergyMeter(env, cluster)
    process = env.process(
        run_trial(
            env,
            cluster,
            trial_id=f"fig3-b{batch_size}-c{cores}",
            workload=LENET_MNIST,
            hyper=HyperParams(batch_size=batch_size, epochs=FIG03_EPOCHS),
            system=SystemParams(cores=cores, memory_gb=memory_gb),
        )
    )
    env.run()
    result = process.value
    return result.accuracy, result.training_time_s, meter.total_energy_joules()


def _pct(value: float, baseline: float) -> float:
    return 100.0 * (value - baseline) / baseline


def fig03_table(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    """Regenerate all three panels as one long table."""
    result = ExperimentResult(
        exhibit="Figure 3",
        title="Batch-size and core-count impact (LeNet/MNIST)",
        columns=[
            "panel",
            "batch_size",
            "cores",
            "accuracy_diff_pct",
            "duration_diff_pct",
            "energy_diff_pct",
        ],
        notes=(
            "(a) baseline batch 32 @4 cores; (b)/(c) baseline 1 core per "
            "batch size. Expected shapes: larger batches -> lower accuracy, "
            "shorter runtime, lower energy; extra cores help batch 1024 "
            "but hurt batch 64"
        ),
    )

    # Panel (a): batch-size impact at the default 4 cores.
    base_acc, base_dur, base_energy = _fig03_train(batch_size=32, cores=4)
    for batch in (64, 256, 1024):
        acc, dur, energy = _fig03_train(batch_size=batch, cores=4)
        result.add_row(
            panel="a",
            batch_size=batch,
            cores=4,
            accuracy_diff_pct=_pct(acc, base_acc),
            duration_diff_pct=_pct(dur, base_dur),
            energy_diff_pct=_pct(energy, base_energy),
        )

    # Panels (b) and (c): cores impact per batch size vs sequential.
    for batch in (64, 256, 1024):
        _, dur1, energy1 = _fig03_train(batch_size=batch, cores=1)
        for cores in (2, 4, 8):
            _, dur, energy = _fig03_train(batch_size=batch, cores=cores)
            result.add_row(
                panel="b/c",
                batch_size=batch,
                cores=cores,
                accuracy_diff_pct=0.0,
                duration_diff_pct=_pct(dur, dur1),
                energy_diff_pct=_pct(energy, energy1),
            )
    return result


# ---------------------------------------------------------------------------
# Figure 8 — profiling campaign + k-means
# ---------------------------------------------------------------------------


def profile_campaign(scale: float = 1.0):
    """Feature vectors + metadata from the §7.2 profiling campaign.

    Each workload is profiled under the paper's batch grid (one epoch
    per point, default system configuration, two repetitions).
    """
    batches = PAPER_BATCH_GRID if scale >= 1.0 else PAPER_BATCH_GRID[:2]
    profiler = EpochProfiler()
    system = SystemParams(cores=8, memory_gb=32.0)
    features, meta = [], []
    for workload in type12_workloads():
        for batch in batches:
            config = TrialConfig(workload, HyperParams(batch_size=batch), system)
            profiles = []
            durations = []
            for rep in range(2):
                cost = epoch_cost(config, epoch=rep)
                durations.append(cost.total_s)
                profiles.append(
                    profiler.profile_epoch(
                        config, rep, cost.total_s, active_cores(config, cost)
                    )
                )
            features.append(np.mean([p.feature_vector() for p in profiles], axis=0))
            meta.append(
                {
                    "workload": workload.name,
                    "model": workload.model,
                    "dataset": workload.dataset,
                    "type": workload.workload_type,
                    "batch_size": batch,
                    "duration_s": float(np.mean(durations)),
                }
            )
    return np.array(features), meta


def fig08_table(scale: float = 1.0, seed: int = 0) -> ExperimentResult:
    features, meta = profile_campaign(scale)
    model = KMeans(k=2, seed=seed).fit(features)
    result = ExperimentResult(
        exhibit="Figure 8",
        title="k-means (k=2) clusters over profiling-campaign features",
        columns=[
            "workload",
            "model",
            "dataset",
            "type",
            "batch_size",
            "duration_s",
            "cluster",
        ],
        notes=(
            "expected: Type-I (lenet/*) and Type-II (*/news20) separate "
            "into the two clusters"
        ),
    )
    for row, label in zip(meta, model.labels):
        result.add_row(cluster=int(label), **row)
    return result


# ---------------------------------------------------------------------------
# Collectors for the tuning-job exhibits
# ---------------------------------------------------------------------------


def _collect_fig05(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    groups = _grouped_jobs(plan, outcomes)
    baseline = next(runs for _, p, runs in groups if p.kind == "v1")
    base_error = mean(1.0 - r.best_accuracy for r in baseline)
    base_time = mean(r.best_training_time_s for r in baseline)
    result = ExperimentResult(
        exhibit="Figure 5",
        title="Tune V2 under co-located jobs vs a single Tune V1 job",
        columns=["cores", "jobs", "error_improvement_pct", "runtime_improvement_pct"],
        notes=(
            "improvement relative to one Tune V1 job on the default "
            "system configuration; positive = better than baseline"
        ),
    )
    for _, policy, runs in groups:
        if policy.kind != "v2":
            continue
        error = mean(1.0 - r.best_accuracy for r in runs)
        time = mean(r.best_training_time_s for r in runs)
        result.add_row(
            cores=dict(policy.space_overrides)["cores"][0],
            jobs=int(policy.contention),
            error_improvement_pct=100.0 * (base_error - error) / base_error,
            runtime_improvement_pct=100.0 * (base_time - time) / base_time,
        )
    return result


def _collect_table2(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="Table 2",
        title="Accuracy, training and tuning time per approach (LeNet/MNIST)",
        columns=["approach", "accuracy_pct", "training_time_s", "tuning_time_s"],
        notes=f"mean over {len(plan.seeds)} seeds",
    )
    for _, policy, runs in _grouped_jobs(plan, outcomes):
        if policy.kind == "fixed":
            result.add_row(
                approach=policy.label,
                accuracy_pct=100.0 * mean(r.accuracy for r in runs),
                training_time_s=mean(r.training_time_s for r in runs),
                tuning_time_s=0.0,
            )
        else:
            result.add_row(
                approach=policy.label,
                accuracy_pct=100.0 * mean(r.best_accuracy for r in runs),
                training_time_s=mean(r.best_training_time_s for r in runs),
                tuning_time_s=mean(r.tuning_time_s for r in runs),
            )
    return result


def _collect_fig09(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="Figure 9",
        title="Accuracy convergence over tuning wall-clock (CNN/News20)",
        columns=["system", "wall_time_s", "best_accuracy_pct", "trial_accuracy_pct"],
        notes="one timeline row per completed trial",
    )
    for _, policy, runs in _grouped_jobs(plan, outcomes):
        for hpt in runs:
            for point in hpt.timeline:
                result.add_row(
                    system=policy.label,
                    wall_time_s=point.wall_time_s,
                    best_accuracy_pct=100.0 * point.best_accuracy,
                    trial_accuracy_pct=100.0 * point.trial_accuracy,
                )
    return result


def _collect_fig10(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    result = ExperimentResult(
        exhibit="Figure 10",
        title="Training-trial time over tuning wall-clock (CNN/News20)",
        columns=["system", "wall_time_s", "trial_time_s"],
        notes="one row per completed trial; "
        "trial_time normalised to a full training run",
    )
    for _, policy, runs in _grouped_jobs(plan, outcomes):
        for hpt in runs:
            for point in hpt.timeline:
                result.add_row(
                    system=policy.label,
                    wall_time_s=point.wall_time_s,
                    trial_time_s=point.trial_training_time_s,
                )
    return result


def _collect_fig13(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    tenancy = plan.scenario.tenancy
    num_jobs = tenancy.scaled_jobs(plan.scale)
    result = ExperimentResult(
        exhibit="Figure 13",
        title="Multi-tenancy mean response time (Type-I/II mix)",
        columns=["system", "type_I_s", "type_II_s", "all_s", "queue_wait_s"],
        notes=(
            f"{num_jobs} jobs, exp. interarrival "
            f"{tenancy.mean_interarrival_s:.0f}s, "
            f"{tenancy.max_concurrent_jobs} concurrent jobs, 20% unseen"
        ),
    )
    for step, trace in zip(plan.steps, outcomes):
        if not isinstance(step, TraceStep):
            continue
        result.add_row(
            system=step.policy.label,
            type_I_s=trace.mean_response_time_s("I"),
            type_II_s=trace.mean_response_time_s("II"),
            all_s=trace.mean_response_time_s(),
            queue_wait_s=trace.mean_queue_wait_s(),
        )
    return result


def _collect_fig14(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    tenancy = plan.scenario.tenancy
    num_jobs = tenancy.scaled_jobs(plan.scale)
    result = ExperimentResult(
        exhibit="Figure 14",
        title="Multi-tenancy mean response time (Type-III, single node)",
        columns=["system", "jacobi_s", "spkmeans_s", "bfs_s", "all_s"],
        notes=(
            f"{num_jobs} jobs, exp. interarrival "
            f"{tenancy.mean_interarrival_s:.0f}s, "
            "FIFO one job at a time, 20% unseen"
        ),
    )
    def by_workload(trace, prefix: str) -> float:
        records = [
            r
            for r in trace.records
            if r.arrival.workload.name.startswith(prefix)
        ]
        if not records:
            return 0.0
        return sum(r.response_time_s for r in records) / len(records)

    for step, trace in zip(plan.steps, outcomes):
        if not isinstance(step, TraceStep):
            continue
        result.add_row(
            system=step.policy.label,
            jacobi_s=by_workload(trace, "jacobi"),
            spkmeans_s=by_workload(trace, "spkmeans"),
            bfs_s=by_workload(trace, "bfs"),
            all_s=trace.mean_response_time_s(),
        )
    return result


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def _analysis_plan(name: str, fn):
    def plan_fn(scenario, scale, seed):
        return [AnalysisStep(name=name, fn=fn)]

    return plan_fn


def _analysis_collect(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
    return outcomes[0]


def _register_analysis(name: str, fn, exhibit: str, title: str, description: str,
                       **builder_kwargs) -> None:
    builder = (
        Scenario.builder(name)
        .kind("analysis")
        .exhibit(exhibit)
        .title(title)
        .describe(description)
    )
    for method, value in builder_kwargs.items():
        getattr(builder, method)(*value if isinstance(value, tuple) else (value,))
    register(
        builder.build(validate=False),
        collect=_analysis_collect,
        plan_fn=_analysis_plan(name, fn),
        source="paper",
    )


_register_analysis(
    "fig01",
    fig01_table,
    "Figure 1",
    "Grid-search tuning time and EC2 cost vs tuned parameters",
    "Analytic cost model: exponential growth of grid search on EC2.",
    workloads=("lenet-mnist",),
)

_register_analysis(
    "fig02",
    fig02_table,
    "Figure 2",
    "Performance-counter events averaged per epoch (CNN/News20)",
    "PMU heatmap over init + 5 training epochs: events repeat per epoch.",
    workloads=("cnn-news20",),
)

_register_analysis(
    "fig03",
    fig03_table,
    "Figure 3",
    "Batch-size and core-count impact (LeNet/MNIST)",
    "Hyper/system parameter impact on accuracy, runtime and energy.",
    workloads=("lenet-mnist",),
)

register(
    Scenario.builder("fig05")
    .exhibit("Figure 5")
    .title("Tune V2 under co-located jobs vs a single Tune V1 job")
    .describe(
        "A Tune V2 job pinned to {1,2,4,8} cores shared with {1,2,3} "
        "background jobs, vs one Tune V1 job on the default setup."
    )
    .paper_cluster(distributed=True)
    .workloads("lenet-mnist")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(
        tune_v1(),
        *(
            tune_v2(
                label=f"tune-v2-{cores}c-{jobs}j",
                name=f"v2-pinned-{cores}c-{jobs}j",
                sample_scale=1.0,
                contention=float(jobs),
                space_overrides=(("cores", (cores,)),),
            )
            for cores in (1, 2, 4, 8)
            for jobs in (2, 3, 4)
        ),
    )
    .repetitions(2)
    .build(),
    collect=_collect_fig05,
    source="paper",
)

register(
    Scenario.builder("table2")
    .exhibit("Table 2")
    .title("Accuracy, training and tuning time per approach (LeNet/MNIST)")
    .describe(
        "Arbitrary configuration vs Tune V1 vs Tune V2 vs PipeTune on "
        "LeNet/MNIST (paper Table 2)."
    )
    .paper_cluster(distributed=True)
    .workloads("lenet-mnist")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(
        fixed_trial(
            # a plausible "just pick something" configuration: small-ish
            # batch (slow epochs), overly hot learning rate, heavy
            # dropout, more epochs than needed.
            hyper={
                "batch_size": 64,
                "dropout": 0.45,
                "learning_rate": 0.03,
                "epochs": 18,
            },
            system={"cores": 8, "memory_gb": 32.0},
            label="Arbitrary",
            name="arbitrary",
        ),
        tune_v1(label="Tune V1"),
        tune_v2(label="Tune V2"),
        pipetune(label="PipeTune"),
    )
    .repetitions(3)
    .build(),
    collect=_collect_table2,
    source="paper",
)

_register_analysis(
    "fig08",
    fig08_table,
    "Figure 8",
    "k-means (k=2) clusters over profiling-campaign features",
    "k-means over the profiling campaign separates Type-I from Type-II.",
    workloads=tuple(w.name for w in type12_workloads()),
)

register(
    Scenario.builder("fig09")
    .exhibit("Figure 9")
    .title("Accuracy convergence over tuning wall-clock (CNN/News20)")
    .describe(
        "Best-so-far accuracy over the tuning wall-clock for PipeTune, "
        "Tune V1 and Tune V2 on CNN/News20."
    )
    .paper_cluster(distributed=True)
    .workloads("cnn-news20")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(pipetune(), tune_v1(), tune_v2())
    .repetitions(1)
    .build(),
    collect=_collect_fig09,
    source="paper",
)

register(
    Scenario.builder("fig10")
    .exhibit("Figure 10")
    .title("Training-trial time over tuning wall-clock (CNN/News20)")
    .describe(
        "Per-trial (normalised) training time over the tuning "
        "wall-clock; companion to Figure 9."
    )
    .paper_cluster(distributed=True)
    .workloads("cnn-news20")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(pipetune(), tune_v1(), tune_v2())
    .repetitions(1)
    .build(),
    collect=_collect_fig10,
    source="paper",
)

register(
    Scenario.builder("fig11")
    .exhibit("Figure 11")
    .title("Single-tenancy: accuracy / training / tuning / energy (Type-I/II)")
    .describe(
        "Four metrics for every Type-I/II workload under Tune V1, "
        "Tune V2 and PipeTune, each job on a dedicated 4-node cluster."
    )
    .paper_cluster(distributed=True)
    .workloads_of_type("I", "II")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v1(), tune_v2(), pipetune())
    .repetitions(3)
    .build(),
    collect=metrics_by_system_collector(
        "Figure 11",
        "Single-tenancy: accuracy / training / tuning / energy (Type-I/II)",
        lambda plan: (
            f"mean over {len(plan.seeds)} seeds; dedicated 4-node cluster per job"
        ),
    ),
    source="paper",
)

register(
    Scenario.builder("fig12")
    .exhibit("Figure 12")
    .title("Single-node Type-III: accuracy / training / tuning / energy")
    .describe(
        "The Figure-11 comparison on the single-node testbed with the "
        "short-epoch Rodinia workloads."
    )
    .paper_cluster(distributed=False)
    .workloads_of_type("III")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v1(), tune_v2(), pipetune())
    .repetitions(3)
    .max_concurrent_trials(2)
    .build(),
    collect=metrics_by_system_collector(
        "Figure 12",
        "Single-node Type-III: accuracy / training / tuning / energy",
        lambda plan: f"mean over {len(plan.seeds)} seeds; single 8-core/24GB node",
    ),
    source="paper",
)

register(
    Scenario.builder("fig13")
    .exhibit("Figure 13")
    .title("Multi-tenancy mean response time (Type-I/II mix)")
    .describe(
        "HPT jobs arriving with exponential interarrival times on the "
        "shared 4-node cluster; 20% unseen workload variants."
    )
    .paper_cluster(distributed=True)
    .workloads_of_type("I", "II")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v1(), tune_v2(), pipetune())
    .multi_tenant(
        num_jobs=12,
        mean_interarrival_s=1200.0,
        unseen_fraction=0.2,
        max_concurrent_jobs=2,
        min_jobs=4,
    )
    .build(),
    collect=_collect_fig13,
    source="paper",
)

register(
    Scenario.builder("fig14")
    .exhibit("Figure 14")
    .title("Multi-tenancy mean response time (Type-III, single node)")
    .describe(
        "The Figure-13 protocol on the single-node testbed with the "
        "Rodinia workloads, FIFO one job at a time."
    )
    .paper_cluster(distributed=False)
    .workloads_of_type("III")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v1(), tune_v2(), pipetune())
    .multi_tenant(
        num_jobs=12,
        mean_interarrival_s=400.0,
        unseen_fraction=0.2,
        max_concurrent_jobs=1,
        min_jobs=4,
    )
    .max_concurrent_trials(2)
    .build(),
    collect=_collect_fig14,
    source="paper",
)

# next in the built-in catalogue chain (see repro.scenarios.registry)
import_module(".novel", __package__)
