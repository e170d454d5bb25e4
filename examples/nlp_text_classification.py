#!/usr/bin/env python3
"""NLP scenario: tuning CNN and LSTM text classifiers on News20.

Type-II workloads (two models sharing one dataset) are where the
ground-truth phase shines: once the session has profiled the CNN, the
LSTM's trials hit the similarity model and skip probing. This script
tunes both models back to back in one PipeTune session and prints the
accuracy-convergence timeline (paper Fig 9 style) for the second job.

Usage::

    python examples/nlp_text_classification.py [seed]
"""

import sys

from repro import CNN_NEWS20, LSTM_NEWS20
from repro.scenarios import (
    Scenario,
    build_job_spec,
    execute_job,
    pipetune,
    session_for_cluster,
)

#: both News20 models under PipeTune on the paper's 4-node testbed.
SCENARIO = (
    Scenario.builder("nlp-text-classification")
    .workloads(CNN_NEWS20.name, LSTM_NEWS20.name)
    .compare(pipetune())
    .build()
)


def main(seed: int = 0) -> None:
    # Cold session: no warm start. The first job must probe; the
    # second job reuses the first job's stored profiles.
    cluster = SCENARIO.cluster
    session = session_for_cluster(cluster, seed=seed)
    (policy,) = SCENARIO.systems

    def run(workload):
        spec = build_job_spec(SCENARIO, policy, workload, seed, session=session)
        return execute_job(spec, cluster)

    print("Job 1: CNN on News20 (cold ground truth, probing expected)")
    cnn = run(CNN_NEWS20)
    print(
        f"  accuracy {100 * cnn.best_accuracy:.2f}%  "
        f"tuning {cnn.tuning_time_s:.0f}s  "
        f"probing trials so far: {session.stats.probing_trials}"
    )

    print("\nJob 2: LSTM on News20 (warm ground truth, hits expected)")
    hits_before = session.stats.ground_truth_hits
    lstm = run(LSTM_NEWS20)
    print(
        f"  accuracy {100 * lstm.best_accuracy:.2f}%  "
        f"tuning {lstm.tuning_time_s:.0f}s  "
        f"ground-truth hits during job 2: "
        f"{session.stats.ground_truth_hits - hits_before}"
    )

    print("\nAccuracy convergence of job 2 (wall-clock, best-so-far):")
    last = -1.0
    for point in lstm.timeline:
        if point.best_accuracy > last:
            last = point.best_accuracy
            print(
                f"  t={point.wall_time_s:>8.0f}s  "
                f"best accuracy {100 * point.best_accuracy:6.2f}%  "
                f"(trial {point.trial_id})"
            )

    print(f"\nSession totals: {session.stats}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
