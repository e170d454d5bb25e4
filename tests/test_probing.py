"""Tests for the epoch-granular probing controller."""

import pytest

from repro.core.probing import ProbeSample, ProbingController
from repro.tune.objectives import energy_system_objective
from repro.workloads.spec import BASE_CPU_FREQ_GHZ, SystemParams


def drain(controller, cost_fn):
    """Probe everything the controller asks for, scoring via cost_fn."""
    while True:
        config = controller.next_config()
        if config is None:
            break
        duration, energy = cost_fn(config)
        controller.record(
            ProbeSample(system=config, duration_s=duration, energy_j=energy)
        )


class TestPlan:
    def test_core_phase_first(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0),
            cores_grid=(4, 8, 16),
            memory_grid_gb=(4.0, 8.0, 16.0, 32.0),
        )
        first_three = [controller.next_config() for _ in range(3)]
        assert [c.cores for c in first_three] == [4, 8, 16]
        assert all(c.memory_gb == 32.0 for c in first_three)

    def test_memory_phase_at_best_cores(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0),
            cores_grid=(4, 8, 16),
            memory_grid_gb=(8.0, 16.0, 32.0),
        )

        def cost(config):
            return (10.0 if config.cores == 16 else 50.0, 100.0)

        drain(controller, cost)
        memory_probes = [s.system for s in controller.samples[3:]]
        assert all(s.cores == 16 for s in memory_probes)

    def test_plan_length(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0),
            cores_grid=(4, 8, 16),
            memory_grid_gb=(4.0, 8.0, 16.0, 32.0),
        )
        drain(controller, lambda config: (10.0, 10.0))
        # 3 core counts + 4 memory sizes, the best core count at the
        # largest memory issued once: 3 + 4 - 1 epochs.
        assert controller.probes_run == 6
        assert len({s.system for s in controller.samples}) == 6

    def test_max_probes_caps_plan(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0), max_probes=2
        )
        configs = []
        while True:
            c = controller.next_config()
            if c is None:
                break
            configs.append(c)
            controller.record(ProbeSample(c, 10.0, 10.0))
        assert len(configs) == 2

    def test_every_probe_runs_at_the_nominal_clock(self):
        # the clock is no probed dimension: a job started below the
        # nominal clock is probed, and placed, at the nominal one
        controller = ProbingController(
            initial=SystemParams(8, 32.0, cpu_freq_ghz=1.8),
            cores_grid=(4, 8),
            memory_grid_gb=(16.0, 32.0),
        )
        drain(controller, lambda config: (60.0 / config.cores, 100.0))
        assert controller.probes_run == 3
        assert {s.system.cpu_freq_ghz for s in controller.samples} == {
            BASE_CPU_FREQ_GHZ
        }
        assert controller.best_system() == SystemParams(8, 16.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProbingController(SystemParams(4, 8.0), cores_grid=())
        with pytest.raises(ValueError):
            ProbingController(SystemParams(4, 8.0), max_probes=0)

    def test_record_without_issue_raises(self):
        controller = ProbingController(SystemParams(4, 8.0))
        with pytest.raises(RuntimeError):
            controller.record(ProbeSample(SystemParams(4, 8.0), 1.0, 1.0))


class TestDecision:
    def test_picks_shortest_runtime(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0), cores_grid=(4, 8, 16),
            memory_grid_gb=(32.0,),
        )

        def cost(config):
            return ({4: 30.0, 8: 20.0, 16: 40.0}[config.cores], 100.0)

        drain(controller, cost)
        assert controller.best_system().cores == 8

    def test_tie_breaks_toward_smaller_footprint(self):
        controller = ProbingController(
            initial=SystemParams(8, 32.0),
            cores_grid=(8,),
            memory_grid_gb=(8.0, 16.0, 32.0),
        )
        drain(controller, lambda c: (20.0, 100.0))  # all equal
        assert controller.best_system().memory_gb == 8.0

    def test_no_samples_falls_back_to_initial(self):
        controller = ProbingController(initial=SystemParams(2, 4.0))
        assert controller.best_system() == SystemParams(2, 4.0)
        assert controller.best_sample() is None

    def test_energy_objective_changes_winner(self):
        def cost(config):
            # 16 cores fastest but most energy
            duration = {4: 30.0, 8: 25.0, 16: 20.0}[config.cores]
            energy = {4: 50.0, 8: 150.0, 16: 400.0}[config.cores]
            return duration, energy

        runtime_ctl = ProbingController(
            SystemParams(8, 32.0), cores_grid=(4, 8, 16), memory_grid_gb=(32.0,)
        )
        drain(runtime_ctl, cost)
        energy_ctl = ProbingController(
            SystemParams(8, 32.0), cores_grid=(4, 8, 16), memory_grid_gb=(32.0,),
            objective=energy_system_objective,
        )
        drain(energy_ctl, cost)
        assert runtime_ctl.best_system().cores == 16
        assert energy_ctl.best_system().cores == 4

    def test_exhausted_lifecycle(self):
        controller = ProbingController(
            SystemParams(8, 32.0), cores_grid=(4, 8), memory_grid_gb=(32.0,)
        )
        assert not controller.exhausted
        config = controller.next_config()
        assert not controller.exhausted  # in flight
        controller.record(ProbeSample(config, 10.0, 10.0))
        config = controller.next_config()
        controller.record(ProbeSample(config, 12.0, 10.0))
        # core phase done; memory phase has only the already-probed 32GB
        assert controller.next_config() is None
        assert controller.exhausted

    def test_probes_run_counter(self):
        controller = ProbingController(
            SystemParams(8, 32.0), cores_grid=(4, 8), memory_grid_gb=(32.0,)
        )
        drain(controller, lambda c: (10.0, 10.0))
        assert controller.probes_run == 2
