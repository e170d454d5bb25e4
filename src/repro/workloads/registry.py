"""The seven paper workloads (Table 3) and lookup helpers.

========  =========  =============  ========  ===========  ==========
Type      Model      Dataset        Datasize  Train files  Test files
========  =========  =============  ========  ===========  ==========
Type-I    LeNet5     MNIST          12 MB     60 000       10 000
Type-I    LeNet5     Fashion-MNIST  31 MB     60 000       10 000
Type-II   CNN        News20         15 MB     11 307       7 538
Type-II   LSTM       News20         15 MB     11 307       7 538
Type-III  Jacobi     Rodinia        26 MB     1 650        7 538
Type-III  SPK-means  Rodinia        26 MB     1 650        7 538
Type-III  BFS        Rodinia        26 MB     1 650        7 538
========  =========  =============  ========  ===========  ==========

Cost/accuracy coefficients are calibrated so magnitudes land near the
paper's: Type-I/II epochs take tens of seconds to minutes, Type-III
epochs take seconds, and best-config training times sit in the
hundreds of seconds for LeNet/MNIST (Table 2 reports 187–445 s).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..schema import NotFound
from .spec import WorkloadSpec

LENET_MNIST = WorkloadSpec(
    name="lenet-mnist",
    model="lenet5",
    dataset="mnist",
    workload_type="I",
    datasize_mb=12.0,
    train_files=60_000,
    test_files=10_000,
    compute_per_sample=6.0e-4,
    sync_per_core=5.5e-3,
    parallel_alpha=0.85,
    mem_base_gb=4.5,
    mem_per_sample_gb=1.5e-3,
    epoch_overhead_s=2.0,
    base_accuracy=0.935,
    convergence_rate=0.45,
    log_lr_opt=-2.0,
    log_lr_sigma=1.6,
    batch_penalty=0.022,
    dropout_opt=0.25,
    dropout_curvature=0.55,
    accuracy_noise=0.004,
)

LENET_FASHION = WorkloadSpec(
    name="lenet-fashion",
    model="lenet5",
    dataset="fashion-mnist",
    workload_type="I",
    datasize_mb=31.0,
    train_files=60_000,
    test_files=10_000,
    compute_per_sample=7.0e-4,
    sync_per_core=5.5e-3,
    parallel_alpha=0.85,
    mem_base_gb=4.8,
    mem_per_sample_gb=1.8e-3,
    epoch_overhead_s=2.2,
    base_accuracy=0.905,
    convergence_rate=0.40,
    log_lr_opt=-2.1,
    log_lr_sigma=1.5,
    batch_penalty=0.025,
    dropout_opt=0.28,
    dropout_curvature=0.6,
    accuracy_noise=0.005,
)

CNN_NEWS20 = WorkloadSpec(
    name="cnn-news20",
    model="cnn",
    dataset="news20",
    workload_type="II",
    datasize_mb=15.0,
    train_files=11_307,
    test_files=7_538,
    compute_per_sample=8.8e-3,
    sync_per_core=8.0e-2,
    parallel_alpha=0.8,
    mem_base_gb=5.5,
    mem_per_sample_gb=4.0e-3,
    mem_pressure_slope=1.8,
    epoch_overhead_s=4.0,
    uses_embedding=True,
    base_accuracy=0.84,
    convergence_rate=0.18,
    log_lr_opt=-2.3,
    log_lr_sigma=1.4,
    batch_penalty=0.03,
    dropout_opt=0.3,
    dropout_curvature=0.7,
    embedding_opt=200,
    accuracy_noise=0.006,
)

LSTM_NEWS20 = WorkloadSpec(
    name="lstm-news20",
    model="lstm",
    dataset="news20",
    workload_type="II",
    datasize_mb=15.0,
    train_files=11_307,
    test_files=7_538,
    compute_per_sample=1.15e-2,
    sync_per_core=9.5e-2,
    parallel_alpha=0.78,
    mem_base_gb=6.0,
    mem_per_sample_gb=4.5e-3,
    mem_pressure_slope=1.8,
    epoch_overhead_s=4.5,
    uses_embedding=True,
    base_accuracy=0.80,
    convergence_rate=0.15,
    log_lr_opt=-2.5,
    log_lr_sigma=1.3,
    batch_penalty=0.032,
    dropout_opt=0.32,
    dropout_curvature=0.7,
    embedding_opt=220,
    accuracy_noise=0.007,
)

JACOBI_RODINIA = WorkloadSpec(
    name="jacobi-rodinia",
    model="jacobi",
    dataset="rodinia",
    workload_type="III",
    datasize_mb=26.0,
    train_files=1_650,
    test_files=7_538,
    compute_per_sample=1.5e-3,
    sync_per_core=1.1e-2,
    parallel_alpha=0.8,
    mem_base_gb=3.2,
    mem_per_sample_gb=1.0e-3,
    epoch_overhead_s=0.5,
    base_accuracy=0.72,
    convergence_rate=0.32,
    log_lr_opt=-2.0,
    log_lr_sigma=1.4,
    batch_penalty=0.028,
    dropout_opt=0.2,
    dropout_curvature=0.5,
    accuracy_noise=0.008,
)

SPKMEANS_RODINIA = WorkloadSpec(
    name="spkmeans-rodinia",
    model="spkmeans",
    dataset="rodinia",
    workload_type="III",
    datasize_mb=26.0,
    train_files=1_650,
    test_files=7_538,
    compute_per_sample=1.8e-3,
    sync_per_core=1.3e-2,
    parallel_alpha=0.8,
    mem_base_gb=3.4,
    mem_per_sample_gb=1.2e-3,
    epoch_overhead_s=0.6,
    base_accuracy=0.65,
    convergence_rate=0.30,
    log_lr_opt=-1.8,
    log_lr_sigma=1.4,
    batch_penalty=0.026,
    dropout_opt=0.22,
    dropout_curvature=0.5,
    accuracy_noise=0.009,
)

BFS_RODINIA = WorkloadSpec(
    name="bfs-rodinia",
    model="bfs",
    dataset="rodinia",
    workload_type="III",
    datasize_mb=26.0,
    train_files=1_650,
    test_files=7_538,
    compute_per_sample=1.2e-3,
    sync_per_core=0.9e-2,
    parallel_alpha=0.82,
    mem_base_gb=3.0,
    mem_per_sample_gb=0.9e-3,
    epoch_overhead_s=0.4,
    base_accuracy=0.56,
    convergence_rate=0.34,
    log_lr_opt=-2.2,
    log_lr_sigma=1.4,
    batch_penalty=0.024,
    dropout_opt=0.18,
    dropout_curvature=0.5,
    accuracy_noise=0.009,
)

ALL_WORKLOADS: Tuple[WorkloadSpec, ...] = (
    LENET_MNIST,
    LENET_FASHION,
    CNN_NEWS20,
    LSTM_NEWS20,
    JACOBI_RODINIA,
    SPKMEANS_RODINIA,
    BFS_RODINIA,
)

_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in ALL_WORKLOADS}


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by its registry name (e.g. ``lenet-mnist``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise NotFound(f"unknown workload {name!r}; known: {known}") from None


def workloads_of_type(workload_type: str) -> List[WorkloadSpec]:
    """All workloads of a paper type (``"I"``, ``"II"`` or ``"III"``)."""
    if workload_type not in ("I", "II", "III"):
        raise ValueError("workload_type must be 'I', 'II' or 'III'")
    return [w for w in ALL_WORKLOADS if w.workload_type == workload_type]


def type12_workloads() -> List[WorkloadSpec]:
    """The distributed-testbed workloads (Figs 11 & 13)."""
    return workloads_of_type("I") + workloads_of_type("II")
