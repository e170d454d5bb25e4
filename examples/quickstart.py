#!/usr/bin/env python3
"""Quickstart: tune LeNet/MNIST with PipeTune on a simulated cluster.

Declares one scenario — Tune V1 (accuracy only, fixed system
parameters), Tune V2 (system parameters as extra hyperparameters) and
PipeTune (pipelined system tuning) compared on the paper's 4-node
testbed — plans and validates it through the scenario API, then runs
its steps on a ``ChainExecutor``, which keeps PipeTune's session so
its ground-truth database can be inspected afterwards. Prints the
accuracy / training-time / tuning-time comparison of the paper's
Table 2.

Usage::

    python examples/quickstart.py [seed]
"""

import sys

from repro.scenarios import (
    ChainExecutor,
    Scenario,
    ScenarioRunner,
    pipetune,
    tune_v1,
    tune_v2,
)

SCENARIO = (
    Scenario.builder("quickstart")
    .title("Tune V1 vs Tune V2 vs PipeTune on LeNet/MNIST")
    .paper_cluster(distributed=True)
    .workloads("lenet-mnist")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(
        tune_v1(label="Tune V1"),
        tune_v2(label="Tune V2"),
        pipetune(label="PipeTune"),
    )
    .repetitions(1)
    .build()
)


def main(seed: int = 0) -> None:
    print(f"Tuning lenet-mnist (seed={seed}) on a simulated 4-node cluster\n")

    runner = ScenarioRunner(SCENARIO)
    plan = runner.plan(scale=1.0, seed=seed)
    runner.validate(plan)
    executor = ChainExecutor(plan.scenario, plan.scale, plan.seed)
    outcomes = [executor.run_step(step) for step in plan.steps]

    rows = [
        (step.policy.label, result) for step, result in zip(plan.steps, outcomes)
    ]
    header = (
        f"{'approach':<10} {'accuracy':>9} {'training[s]':>12} "
        f"{'tuning[s]':>10} {'trials':>7}"
    )
    print(header)
    print("-" * len(header))
    for name, result in rows:
        print(
            f"{name:<10} {100 * result.best_accuracy:>8.2f}% "
            f"{result.best_training_time_s:>12.0f} {result.tuning_time_s:>10.0f} "
            f"{result.num_trials:>7d}"
        )

    by_label = dict(rows)
    v1, pipetune_result = by_label["Tune V1"], by_label["PipeTune"]
    best_hyper = pipetune_result.best_hyper
    print(
        f"\nPipeTune best hyperparameters: batch={best_hyper.batch_size} "
        f"lr={best_hyper.learning_rate:.4f} "
        f"dropout={best_hyper.dropout:.2f}"
    )
    print(
        f"PipeTune best system parameters: {pipetune_result.best_system.cores} cores, "
        f"{pipetune_result.best_system.memory_gb:.0f} GB"
    )
    (session,) = executor.sessions.values()  # one session per pipetune policy
    print(f"Ground-truth hit rate: {session.stats.hit_rate:.0%}")
    saved = 100 * (1 - pipetune_result.tuning_time_s / v1.tuning_time_s)
    print(f"Tuning time vs Tune V1: {saved:+.1f}% " + ("(saved)" if saved > 0 else ""))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
