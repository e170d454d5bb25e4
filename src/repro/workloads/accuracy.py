"""Analytic accuracy model: the learning-curve response surface.

Stands in for real DNN training. Hyperparameter-tuning algorithms only
ever observe (config -> accuracy-per-epoch) pairs, so a calibrated
response surface exercises the identical tuning code paths as real
training, at simulation speed.

Shape of the model (standard in the HPO-benchmarking literature):

``acc(e) = A(hp) * (1 - exp(-r(hp) * e)) + noise``

* the asymptote ``A`` is the workload's base accuracy discounted by
  smooth penalties for off-optimal learning rate (log-gaussian), large
  batch sizes (per-doubling penalty — §3.1/Fig 3a of the paper),
  off-optimal dropout (quadratic) and, for NLP workloads, off-optimal
  embedding dimension;
* the rate ``r`` slows for large batches (fewer updates per epoch) and
  for small learning rates;
* noise is seeded deterministically per (workload, hyper, epoch), so
  experiments are reproducible yet trials look realistically jittery.

System parameters deliberately do **not** influence accuracy — that is
the core premise PipeTune exploits: cores/memory change *time and
energy*, not the learned model.
"""

from __future__ import annotations

import math
from typing import List

from .noise import noise_block
from .spec import HyperParams, WorkloadSpec


def lr_penalty(workload: WorkloadSpec, learning_rate: float) -> float:
    """Log-gaussian accuracy discount for off-optimal learning rates."""
    log_lr = math.log10(learning_rate)
    delta = log_lr - workload.log_lr_opt
    return math.exp(-(delta * delta) / (2.0 * workload.log_lr_sigma**2))


def batch_penalty(workload: WorkloadSpec, batch_size: int) -> float:
    """Accuracy discount per doubling of batch size beyond 32.

    Larger batches reduce gradient stochasticity and generalise worse
    (paper §7.1.3, Fig 3a).
    """
    doublings = max(0.0, math.log2(batch_size / 32.0))
    return max(0.1, 1.0 - workload.batch_penalty * doublings)


def dropout_penalty(workload: WorkloadSpec, dropout: float) -> float:
    """Quadratic discount around the workload's best dropout rate."""
    delta = dropout - workload.dropout_opt
    return max(0.1, 1.0 - workload.dropout_curvature * delta * delta)


def embedding_penalty(workload: WorkloadSpec, embedding_dim: int) -> float:
    """Discount for NLP models with too-small / too-large embeddings."""
    if not workload.uses_embedding:
        return 1.0
    ratio = embedding_dim / workload.embedding_opt
    delta = math.log2(max(ratio, 1e-6))
    return max(0.1, 1.0 - 0.05 * delta * delta)


def asymptotic_accuracy(workload: WorkloadSpec, hyper: HyperParams) -> float:
    """Best accuracy the configuration converges to (noise-free)."""
    return (
        workload.base_accuracy
        * lr_penalty(workload, hyper.learning_rate)
        * batch_penalty(workload, hyper.batch_size)
        * dropout_penalty(workload, hyper.dropout)
        * embedding_penalty(workload, hyper.embedding_dim)
    )


def convergence_rate(workload: WorkloadSpec, hyper: HyperParams) -> float:
    """Per-epoch convergence-rate constant for the learning curve."""
    batch_slowdown = (32.0 / hyper.batch_size) ** 0.2 if hyper.batch_size > 32 else 1.0
    lr_ratio = hyper.learning_rate / (10.0**workload.log_lr_opt)
    lr_factor = min(1.25, lr_ratio**0.4)
    return workload.convergence_rate * batch_slowdown * lr_factor


def accuracy_at_epoch(
    workload: WorkloadSpec,
    hyper: HyperParams,
    epoch: int,
    trial_seed: int = 0,
    noisy: bool = True,
) -> float:
    """Validation accuracy after ``epoch`` completed epochs (1-based).

    ``epoch=0`` is the untrained model (random-guess floor).
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    floor = 0.05 * workload.base_accuracy
    if epoch == 0:
        return floor
    a_max = asymptotic_accuracy(workload, hyper)
    rate = convergence_rate(workload, hyper)
    acc = floor + (a_max - floor) * (1.0 - math.exp(-rate * epoch))
    if noisy:
        acc += _acc_noise_block(workload, hyper, trial_seed).value(epoch)
    return min(1.0, max(0.0, acc))


def _acc_noise_block(workload: WorkloadSpec, hyper: HyperParams, trial_seed: int):
    """The trial's accuracy-noise block: one stream, indexed by epoch."""
    return noise_block(
        workload.accuracy_noise, workload.name, "acc-noise", hyper, trial_seed
    )


def accuracy_curve(
    workload: WorkloadSpec,
    hyper: HyperParams,
    epochs: int,
    trial_seed: int = 0,
    noisy: bool = True,
    start_epoch: int = 0,
) -> List[float]:
    """Accuracies after epochs ``start_epoch+1..epochs``, in one pass.

    The learning-curve invariants (floor, asymptote, rate) are computed
    once, the noise is one prefix read of the trial's accuracy-noise
    block, and one list comprehension builds the Python floats the
    trainer indexes per epoch. Element ``e-start_epoch-1`` is
    bit-identical to ``accuracy_at_epoch(workload, hyper, e, ...)``:
    it applies the same float operations in the same order to the same
    stream position (the noise-free curve adds ``0.0``, which leaves
    its positive sums unchanged).
    """
    if not 0 <= start_epoch <= epochs:
        raise ValueError("need 0 <= start_epoch <= epochs")
    floor = 0.05 * workload.base_accuracy
    a_max = asymptotic_accuracy(workload, hyper)
    rate = convergence_rate(workload, hyper)
    span = a_max - floor
    run = range(start_epoch + 1, epochs + 1)
    if noisy and run:
        noise = _acc_noise_block(workload, hyper, trial_seed).prefix(epochs + 1)
    else:
        noise = [0.0] * (epochs + 1)
    return [
        min(1.0, max(0.0, floor + span * (1.0 - math.exp(-rate * e)) + noise[e]))
        for e in run
    ]
