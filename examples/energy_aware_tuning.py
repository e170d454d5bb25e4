#!/usr/bin/env python3
"""Energy-aware tuning: swapping PipeTune's system-level objective.

PipeTune's probing phase scores candidate system configurations with a
pluggable optimisation function (§5.2). This example runs the same
tuning job twice — once minimising epoch *runtime* (the default) and
once minimising epoch *energy* — and compares tuning time, tuning
energy and the system configurations chosen. It also demonstrates the
PDU-style power sampling substrate.

Usage::

    python examples/energy_aware_tuning.py [seed]
"""

import sys

from repro import LENET_FASHION, type12_workloads
from repro.core import PipeTuneConfig
from repro.scenarios import Scenario, build_job_spec, pipetune, session_for_cluster
from repro.simulation import EnergyMeter, Environment, PduSampler
from repro.tune import run_hpt_job
from repro.tune.objectives import energy_system_objective, runtime_system_objective

#: one PipeTune job on LeNet/Fashion on the paper's 4-node testbed.
SCENARIO = (
    Scenario.builder("energy-aware-tuning")
    .workloads(LENET_FASHION.name)
    .compare(pipetune())
    .build()
)


def run_variant(objective, label: str, seed: int):
    config = PipeTuneConfig(system_objective=objective)
    session = session_for_cluster(SCENARIO.cluster, config=config, seed=seed)
    session.warm_start(type12_workloads())
    env = Environment()
    cluster = SCENARIO.cluster.build(env)
    meter = EnergyMeter(env, cluster)
    pdu = PduSampler(env, cluster, period=5.0, precision=0.015, seed=seed)
    (policy,) = SCENARIO.systems
    spec = build_job_spec(SCENARIO, policy, LENET_FASHION, seed, session=session)
    job = run_hpt_job(env, cluster, spec)
    env.process(pdu.process())
    job.add_callback(lambda _event: pdu.stop())  # stop sampling with the job
    env.run()
    result = job.value
    print(
        f"{label:<18} accuracy {100 * result.best_accuracy:6.2f}%  "
        f"tuning {result.tuning_time_s:7.0f}s  "
        f"energy {result.tuning_energy_j / 1000:7.0f} kJ  "
        f"best system {result.best_system.cores}c/"
        f"{result.best_system.memory_gb:.0f}GB"
    )
    print(
        f"{'':<18} cluster meter {meter.total_energy_kj():7.0f} kJ, "
        f"PDU estimate {pdu.energy_joules() / 1000:7.0f} kJ "
        f"({len(pdu.samples)} samples)"
    )
    return result


def main(seed: int = 0) -> None:
    print(f"Energy-aware PipeTune on {LENET_FASHION.name} (seed={seed})\n")
    runtime = run_variant(runtime_system_objective, "runtime objective", seed)
    energy = run_variant(energy_system_objective, "energy objective", seed)
    delta = 100 * (1 - energy.tuning_energy_j / runtime.tuning_energy_j)
    print(f"\nenergy objective saves {delta:+.1f}% tuning energy vs runtime objective")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
