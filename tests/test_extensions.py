"""Tests for the CPU clock (DVFS) as a system parameter.

The paper tunes cores and memory; §7.1.4 notes "the same mechanisms
can be applied to any other parameter of interest". PipeTune here
probes cores and memory only, at the nominal clock, but
``SystemParams.cpu_freq_ghz`` stays part of the performance and power
models (and of the repr that keys every noise stream), and a fixed
trial can set it.
"""

import pytest

from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.trainer import run_trial
from repro.workloads.perfmodel import epoch_time
from repro.workloads.registry import LENET_MNIST
from repro.workloads.spec import (
    BASE_CPU_FREQ_GHZ,
    HyperParams,
    SystemParams,
    TrialConfig,
)

from oracles import trial_energy_j


class TestDvfs:
    def cfg(self, freq):
        return TrialConfig(
            LENET_MNIST,
            HyperParams(batch_size=256),
            SystemParams(cores=4, memory_gb=16.0, cpu_freq_ghz=freq),
        )

    def test_default_frequency_is_nominal(self):
        assert SystemParams(cores=4, memory_gb=8.0).cpu_freq_ghz == BASE_CPU_FREQ_GHZ

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            SystemParams(cores=4, memory_gb=8.0, cpu_freq_ghz=0.1)

    def test_lower_clock_slows_compute(self):
        fast = epoch_time(self.cfg(BASE_CPU_FREQ_GHZ), noisy=False)
        slow = epoch_time(self.cfg(1.8), noisy=False)
        assert slow > fast

    def test_sync_term_unaffected_by_clock(self):
        """Only the compute term scales with frequency."""
        from repro.workloads.perfmodel import epoch_cost

        fast = epoch_cost(self.cfg(BASE_CPU_FREQ_GHZ), noisy=False)
        slow = epoch_cost(self.cfg(1.8), noisy=False)
        assert slow.compute_s == pytest.approx(2.0 * fast.compute_s)
        assert slow.sync_s == pytest.approx(fast.sync_s)

    def test_lower_clock_draws_less_power(self):
        env = Environment()
        cluster = SimCluster(env, [NodeSpec("n0", cores=8, memory_gb=32.0)])

        def alloc_for(freq):
            holder = {}

            def proc():
                a = yield from cluster.allocate(4, 8.0)
                holder["a"] = a
                a.release()

            env.process(proc())
            env.run()
            return holder["a"]

        allocation = alloc_for(3.6)
        full = trial_energy_j(
            SystemParams(4, 8.0, cpu_freq_ghz=3.6), allocation, 4.0, 10.0
        )
        halved = trial_energy_j(
            SystemParams(4, 8.0, cpu_freq_ghz=1.8), allocation, 4.0, 10.0
        )
        assert halved < full

    def test_dict_roundtrip_with_frequency(self):
        system = SystemParams(cores=8, memory_gb=16.0, cpu_freq_ghz=2.4)
        assert SystemParams.from_dict(system.as_dict()) == system

    def test_trial_runs_at_reduced_clock(self):
        env = Environment()
        cluster = SimCluster(env, [NodeSpec("n0", cores=8, memory_gb=32.0)])
        process = env.process(
            run_trial(
                env,
                cluster,
                trial_id="dvfs",
                workload=LENET_MNIST,
                hyper=HyperParams(batch_size=256, epochs=2),
                system=SystemParams(cores=4, memory_gb=16.0, cpu_freq_ghz=1.8),
            )
        )
        env.run()
        assert process.value.final_system.cpu_freq_ghz == 1.8
