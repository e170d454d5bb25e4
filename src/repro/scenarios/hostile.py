"""Hostile-world scenario pack: tuning under injected infrastructure
chaos (PR 6).

Three registered scenarios exercise every axis of the composable
fault model — spot preemption with checkpoint/restore, node churn,
transient crashes recovered by a retry policy, straggler slowdown and
OOM — plus a ``fault-intensity`` sweep over the crash rate. All of it
is declaration: the scenarios are plain registry entries built with
the ``inject_*`` builder verbs, the injection itself lives in
:mod:`repro.tune.faults`.

Because every fault is drawn from counter-keyed Philox streams (keyed
on the fault spec's repr, the trial id, the attempt and the epoch),
the injected chaos is bit-deterministic under any execution backend
and worker count — these scenarios carry committed golden traces like
the paper exhibits, and CI replays them under a process pool.
"""

from __future__ import annotations

from typing import List

from .containment import is_failure
from .registry import register
from .result import ExperimentResult
from .runner import ScenarioPlan, _grouped_jobs, mean, shared_tenancy_collector
from .spec import Scenario, pipetune, tune_v1, tune_v2
from .sweep import Sweep, SweepAxis, register_sweep


def fault_metrics_collector():
    """Per-(workload, system) table with the fault ledger alongside the
    tuning metrics: injected events, dead trials, given-up recoveries."""

    def collect(plan: ScenarioPlan, outcomes: List) -> ExperimentResult:
        scenario = plan.scenario
        notes = "; ".join(scenario.failures.describe())
        failed_steps = sum(1 for outcome in outcomes if is_failure(outcome))
        if failed_steps:
            notes += f"; {failed_steps} failed step(s) excluded"
        result = ExperimentResult(
            exhibit=scenario.exhibit or scenario.name,
            title=scenario.title or scenario.name,
            columns=[
                "workload",
                "system",
                "accuracy_pct",
                "tuning_time_s",
                "fault_events",
                "failed_trials",
                "gave_up",
            ],
            notes=notes,
        )
        for workload, policy, runs in _grouped_jobs(plan, outcomes):
            result.add_row(
                workload=workload.name,
                system=policy.label,
                accuracy_pct=100.0 * mean(r.best_accuracy for r in runs),
                tuning_time_s=mean(r.tuning_time_s for r in runs),
                fault_events=sum(len(r.fault_events) for r in runs),
                failed_trials=sum(r.num_failures for r in runs),
                gave_up=sum(
                    1
                    for r in runs
                    for event in r.fault_events
                    if event.action == "gave-up"
                ),
            )
        return result

    return collect


#: Spot-market tuning: LeNet/MNIST on preemptible capacity. Trials are
#: preempted mid-epoch at 8%/epoch and resume from their last
#: checkpoint after the spot restore delay (see repro.ec2.pricing for
#: the cost seam) — the epochs before the checkpoint are free on
#: resume, everything after is re-trained.
SPOT_MARKET_LENET = (
    Scenario.builder("spot-market-lenet")
    .title("Spot-market preemption with checkpoint/restore (LeNet/MNIST)")
    .describe(
        "LeNet on MNIST tuned on preemptible spot capacity: trials are "
        "preempted at 8%/epoch, checkpoint every 2 epochs and pay the "
        "spot restore delay before resuming from the checkpoint. V1 "
        "re-trains lost epochs; PipeTune's shared ground-truth database "
        "is unaffected by where a trial restarts."
    )
    .paper_cluster(distributed=True)
    .workloads("lenet-mnist")
    .algorithm("random", num_samples=16, epochs=9)
    .compare(tune_v1(), pipetune())
    .inject_preemption(rate_per_epoch=0.08, checkpoint_every_epochs=2)
    .repetitions(1)
    .build()
)

register(SPOT_MARKET_LENET, collect=fault_metrics_collector(), source="novel")

#: Node churn plus transient crashes, recovered by exponential-backoff
#: retries — the fault cocktail of an unreliable on-prem cluster.
CHURN_AND_CRASHES = (
    Scenario.builder("churn-and-crashes")
    .title("Node churn + transient crashes with retry (LeNet/Fashion)")
    .describe(
        "LeNet on Fashion-MNIST on an unreliable cluster: nodes depart "
        "at 5%/epoch (trials reschedule after a delay), trials crash "
        "transiently at 4%/epoch and are retried up to twice with "
        "exponential backoff in simulated time."
    )
    .paper_cluster(distributed=True)
    .workloads("lenet-fashion")
    .algorithm("random", num_samples=16, epochs=9)
    .compare(tune_v1(), tune_v2(sample_scale=1.0))
    .inject_churn(rate_per_epoch=0.05, reschedule_delay_s=180.0)
    .inject_crashes(rate_per_epoch=0.04)
    .retry_policy(max_retries=2, backoff_base_s=60.0)
    .repetitions(1)
    .build()
)

register(CHURN_AND_CRASHES, collect=fault_metrics_collector(), source="novel")

#: Everything at once on a shared cluster: the storm scenario. OOM
#: kills memory-starved shapes, crashes hit surviving trials, a fifth
#: of placements run on straggling nodes, and a single retry is all
#: the recovery budget a tenant gets.
HOSTILE_STORM = (
    Scenario.builder("hostile-storm")
    .title("Multi-tenant storm: OOM + crashes + stragglers under churn")
    .describe(
        "A shared Type-I cluster weathering every fault at once: OOM "
        "injection at 1.8x working-set pressure, 3%/epoch transient "
        "crashes with one backoff retry, and 20% of placements "
        "straggling at 2x slowdown, while tenants keep arriving."
    )
    .paper_cluster(distributed=True)
    .workloads_of_type("I")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(tune_v2(), pipetune())
    .multi_tenant(
        num_jobs=6,
        mean_interarrival_s=600.0,
        unseen_fraction=0.25,
        max_concurrent_jobs=2,
        min_jobs=3,
    )
    .inject_oom(threshold=1.8)
    .inject_crashes(rate_per_epoch=0.03)
    .inject_stragglers(fraction=0.2, slowdown=2.0)
    .retry_policy(max_retries=1, backoff_base_s=60.0)
    .build()
)

register(HOSTILE_STORM, collect=shared_tenancy_collector(), source="novel")

register_sweep(
    Sweep(
        name="fault-intensity",
        scenario="churn-and-crashes",
        title="Crash-rate sensitivity of tuning under churn",
        description=(
            "The churn-and-crashes scenario swept over the transient "
            "crash rate: how much injected failure the retry policy "
            "absorbs before tuning time and accuracy degrade."
        ),
        axes=(
            SweepAxis("failures.crash.rate_per_epoch", (0.01, 0.04, 0.12)),
        ),
    )
)
