#!/usr/bin/env python3
"""Extending the library: a custom workload and custom search spaces.

Shows the pieces a downstream user combines:

* defining a new :class:`WorkloadSpec` (a ResNet-ish image model on a
  CIFAR-like dataset) with its cost/accuracy coefficients;
* building a custom hyperparameter search space;
* comparing search algorithms (random, ASHA, HyperBand) on the same
  tuning job;
* running everything under PipeTune's pipelined system tuning.

Usage::

    python examples/custom_workload.py [seed]
"""

import sys

from repro import HyperBand, RandomSearch, WorkloadSpec
from repro.hpo import Asha
from repro.hpo.space import Choice, LogUniform, SearchSpace, Uniform
from repro.scenarios import PAPER_DISTRIBUTED_CLUSTER, execute_job, session_for_cluster

RESNET_CIFAR = WorkloadSpec(
    name="resnet-cifar",
    model="resnet18",
    dataset="cifar10",
    workload_type="I",
    datasize_mb=163.0,
    train_files=50_000,
    test_files=10_000,
    compute_per_sample=2.4e-3,   # heavier model than LeNet
    sync_per_core=1.2e-2,        # bigger gradients to synchronise
    mem_base_gb=5.5,
    mem_per_sample_gb=3.0e-3,
    epoch_overhead_s=3.0,
    base_accuracy=0.88,
    convergence_rate=0.30,
    log_lr_opt=-1.7,
    log_lr_sigma=1.4,
    batch_penalty=0.03,
    dropout_opt=0.2,
    accuracy_noise=0.005,
)

SPACE = SearchSpace(
    {
        "batch_size": Choice([64, 128, 256, 512]),
        "dropout": Uniform(0.0, 0.4),
        "learning_rate": LogUniform(3e-3, 3e-1),
        "epochs": Choice([6, 9]),
    }
)


def main(seed: int = 0) -> None:
    session = session_for_cluster(PAPER_DISTRIBUTED_CLUSTER, seed=seed)
    # Cold start: the first algorithm's trials probe and seed ground
    # truth; later algorithms reuse it.
    algorithms = {
        "random": lambda: RandomSearch(SPACE, num_samples=16, seed=seed),
        "asha": lambda: Asha(SPACE, max_epochs=9, eta=3, num_samples=16, seed=seed),
        "hyperband": lambda: HyperBand(SPACE, max_epochs=9, eta=3, seed=seed),
    }
    print(f"Tuning custom workload {RESNET_CIFAR.name!r} with 3 algorithms\n")
    header = f"{'algorithm':<10} {'accuracy':>9} {'tuning[s]':>10} {'trials':>7}"
    print(header)
    print("-" * len(header))
    for name, factory in algorithms.items():
        spec = session.job_spec(RESNET_CIFAR, factory, name=name)
        result = execute_job(spec, PAPER_DISTRIBUTED_CLUSTER)
        print(
            f"{name:<10} {100 * result.best_accuracy:>8.2f}% "
            f"{result.tuning_time_s:>10.0f} {result.num_trials:>7d}"
        )
    print(
        f"\nground truth: {len(session.ground_truth)} stored profiles, "
        f"hit rate {session.stats.hit_rate:.0%}"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
