"""EC2 instance catalogue and grid-search tuning-cost estimator (Fig 1).

Figure 1 of the paper motivates PipeTune by showing that exhaustive
grid-search tuning time — and therefore dollar cost on ML-optimised
EC2 instances — grows exponentially with the number of tuned
parameters (3 values per parameter, LeNet on MNIST).

On-demand us-east-1 prices of the instance types the paper plots
(2020 pricing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..workloads.perfmodel import epoch_time
from ..workloads.spec import HyperParams, SystemParams, TrialConfig, WorkloadSpec


@dataclass(frozen=True)
class InstanceType:
    """One EC2 instance type: name, vCPUs, hourly price."""

    name: str
    vcpus: int
    price_per_hour: float

    def __post_init__(self):
        if self.vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if self.price_per_hour <= 0:
            raise ValueError("price must be positive")


M4_4XLARGE = InstanceType("m4.4xlarge", vcpus=16, price_per_hour=0.80)
M5_12XLARGE = InstanceType("m5.12xlarge", vcpus=48, price_per_hour=2.304)
M5_24XLARGE = InstanceType("m5.24xlarge", vcpus=96, price_per_hour=4.608)

PAPER_INSTANCES: Tuple[InstanceType, ...] = (
    M4_4XLARGE,
    M5_12XLARGE,
    M5_24XLARGE,
)

# -- spot market ------------------------------------------------------------
# The hostile-world fault model prices preemptible capacity through
# this seam: every recovery pays a provision + checkpoint-restore
# cost. Restore covers instance provisioning plus re-loading executor
# state from the last checkpoint.

#: seconds to provision a replacement spot instance.
SPOT_PROVISION_S = 90.0
#: default simulated cost of one checkpoint restore (provisioning the
#: replacement capacity plus re-loading trial state); the
#: ``PreemptionSpec.restore_cost_s`` override wins when set.
CHECKPOINT_RESTORE_S = SPOT_PROVISION_S + 30.0


def grid_trial_count(num_parameters: int, values_per_parameter: int = 3) -> int:
    """Trials in a full grid search (Fig 1's x-axis model)."""
    if num_parameters < 0:
        raise ValueError("num_parameters must be >= 0")
    if values_per_parameter < 1:
        raise ValueError("values_per_parameter must be >= 1")
    return values_per_parameter**num_parameters


def mean_trial_time_s(
    workload: WorkloadSpec,
    instance: InstanceType,
    epochs: int = 10,
    batch_size: int = 64,
) -> float:
    """Average single-trial training time on one instance.

    The instance's vCPUs bound the usable core count; parallel trials
    are not modelled (Fig 1's naive tuning runs trials sequentially).
    """
    cores = min(16, instance.vcpus)
    config = TrialConfig(
        workload,
        HyperParams(batch_size=batch_size, epochs=epochs),
        SystemParams(cores=cores, memory_gb=32.0),
    )
    return sum(epoch_time(config, epoch=e, noisy=False) for e in range(epochs))


def tuning_time_s(
    workload: WorkloadSpec,
    instance: InstanceType,
    num_parameters: int,
    values_per_parameter: int = 3,
    epochs: int = 10,
) -> float:
    """Wall-clock of a full grid search over ``num_parameters``.

    Concurrency equals the number of trials the instance can host at
    once (16 cores per trial slot, at least 1).
    """
    trials = grid_trial_count(num_parameters, values_per_parameter)
    concurrency = max(1, instance.vcpus // 16)
    per_trial = mean_trial_time_s(workload, instance, epochs=epochs)
    return math.ceil(trials / concurrency) * per_trial


def tuning_cost_usd(
    workload: WorkloadSpec,
    instance: InstanceType,
    num_parameters: int,
    values_per_parameter: int = 3,
    epochs: int = 10,
) -> float:
    """Dollar cost of the grid search (billed per hour)."""
    seconds = tuning_time_s(
        workload, instance, num_parameters, values_per_parameter, epochs
    )
    return (seconds / 3600.0) * instance.price_per_hour


def cost_table(
    workload: WorkloadSpec,
    parameters: Sequence[int] = (1, 2, 3, 4, 5, 6),
    instances: Sequence[InstanceType] = PAPER_INSTANCES,
) -> List[Dict]:
    """Fig 1's data: tuning hours and cost per (params, instance)."""
    rows = []
    for p in parameters:
        row: Dict = {"parameters": p, "trials": grid_trial_count(p)}
        for inst in instances:
            row[f"{inst.name}/hours"] = tuning_time_s(workload, inst, p) / 3600.0
            row[f"{inst.name}/usd"] = tuning_cost_usd(workload, inst, p)
        rows.append(row)
    return rows
