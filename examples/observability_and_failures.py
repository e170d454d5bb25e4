#!/usr/bin/env python3
"""Operations scenario: telemetry, ASCII dashboards and OOM injection.

Runs a Tune V2 job with failure injection enabled (memory-starved
trials die with OOM instead of merely slowing down), records every
epoch and power change into the embedded time-series store, and
renders terminal dashboards: per-system bars and a Fig-9-style
convergence chart.

Usage::

    python examples/observability_and_failures.py [seed]
"""

import sys

from repro import CNN_NEWS20, Environment, run_hpt_job
from repro.report import bar_chart, comparison_summary, convergence_chart
from repro.scenarios import Scenario, build_job_spec, tune_v2
from repro.telemetry import MetricsRecorder

#: Tune V2 on CNN/News20 on the paper's 4-node testbed, where
#: memory-starved trials die with OOM.
SCENARIO = (
    Scenario.builder("observability-and-failures")
    .workloads(CNN_NEWS20.name)
    .compare(tune_v2())
    .inject_oom(threshold=1.8)
    .build()
)


def main(seed: int = 0) -> None:
    env = Environment()
    cluster = SCENARIO.cluster.build(env)
    recorder = MetricsRecorder(env, cluster)

    (policy,) = SCENARIO.systems
    spec = build_job_spec(SCENARIO, policy, CNN_NEWS20, seed)
    spec.hooks_wrapper = recorder.wrap_hooks      # telemetry for every trial

    job = run_hpt_job(env, cluster, spec)
    env.run()
    result = job.value

    print(f"Tune V2 on {CNN_NEWS20.name} with OOM injection (seed={seed})\n")
    print(f"finished trials : {result.num_trials}")
    print(f"failed trials   : {result.num_failures}")
    for failure in result.failures[:5]:
        print(f"  - {failure.error}")
    if result.num_failures > 5:
        print(f"  ... and {result.num_failures - 5} more")

    print(f"\nbest accuracy   : {100 * result.best_accuracy:.2f}%")
    print(f"tuning time     : {result.tuning_time_s:.0f}s")
    print(f"epochs recorded : {recorder.epochs_recorded()}")
    print(f"mean node power : {recorder.mean_cluster_power_w():.0f} W (sampled)")

    # dashboard 1: where did the tuning time go, per batch size?
    by_batch = {}
    for trial in result.trials:
        by_batch.setdefault(trial.hyper.batch_size, 0.0)
        by_batch[trial.hyper.batch_size] += trial.training_time_s
    print()
    print(
        bar_chart(
            sorted((f"batch {b}", t) for b, t in by_batch.items()),
            title="trial time by batch size",
            unit="s",
        )
    )

    # dashboard 2: convergence of the best score over wall-clock
    print()
    print(convergence_chart({"tune-v2": result.timeline}))

    # dashboard 3: failed vs finished trial count comparison
    print()
    print(
        comparison_summary(
            "submitted",
            float(result.num_trials + result.num_failures),
            {"finished": float(result.num_trials)},
            lower_is_better=False,
        )
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
