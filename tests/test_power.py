"""Tests for energy metering and the PDU sampler."""

import pytest

from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.simulation.power import EnergyMeter, PduSampler


def one_node(env, idle=60.0, core=10.0):
    return SimCluster(
        env,
        [
            NodeSpec(
                name="n0", cores=8, memory_gb=32.0, idle_watts=idle, core_watts=core
            )
        ],
    )


class TestEnergyMeter:
    def test_idle_energy(self):
        env = Environment()
        cluster = one_node(env, idle=50.0)
        meter = EnergyMeter(env, cluster)

        def proc():
            yield env.timeout(10.0)

        env.process(proc())
        env.run()
        assert meter.total_energy_joules() == pytest.approx(500.0)

    def test_piecewise_constant_integration(self):
        env = Environment()
        cluster = one_node(env, idle=60.0, core=10.0)
        meter = EnergyMeter(env, cluster)
        node = cluster.nodes[0]

        def proc():
            yield env.timeout(5.0)       # 5 s at 60 W
            node.notify_busy(4)
            yield env.timeout(10.0)      # 10 s at 100 W
            node.notify_busy(-4)
            yield env.timeout(5.0)       # 5 s at 60 W

        env.process(proc())
        env.run()
        expected = 5 * 60 + 10 * 100 + 5 * 60
        assert meter.total_energy_joules() == pytest.approx(expected)

    def test_kj_conversion(self):
        env = Environment()
        cluster = one_node(env, idle=100.0)
        meter = EnergyMeter(env, cluster)

        def proc():
            yield env.timeout(100.0)

        env.process(proc())
        env.run()
        assert meter.total_energy_kj() == pytest.approx(10.0)


    def test_total_sums_every_node(self):
        env = Environment()
        cluster = SimCluster(
            env,
            [
                NodeSpec(name="n0", cores=8, memory_gb=32.0, idle_watts=40.0),
                NodeSpec(
                    name="n1",
                    cores=8,
                    memory_gb=32.0,
                    idle_watts=60.0,
                    core_watts=5.0,
                ),
            ],
        )
        meter = EnergyMeter(env, cluster)
        busy = cluster.nodes[1]

        def proc():
            yield env.timeout(2.0)      # 2 s at 40 W + 60 W
            busy.notify_busy(4)
            yield env.timeout(3.0)      # 3 s at 40 W + 80 W
            busy.notify_busy(-4)

        env.process(proc())
        env.run()
        assert meter.total_energy_joules() == pytest.approx(2 * 100 + 3 * 120)

    def test_meter_attached_late_counts_from_attachment(self):
        env = Environment()
        cluster = one_node(env, idle=50.0)

        def proc():
            yield env.timeout(4.0)
            meters.append(EnergyMeter(env, cluster))
            yield env.timeout(6.0)

        meters = []
        env.process(proc())
        env.run()
        assert meters[0].total_energy_joules() == pytest.approx(6 * 50.0)


class TestPduSampler:
    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            PduSampler(env, one_node(env), period=0.0)

    def test_estimate_matches_meter_for_constant_power(self):
        env = Environment()
        cluster = one_node(env, idle=75.0)
        meter = EnergyMeter(env, cluster)
        pdu = PduSampler(env, cluster, period=1.0, resolution_watts=1.0)
        env.process(pdu.process(duration=50.0))
        env.run()
        assert pdu.energy_joules() == pytest.approx(
            meter.total_energy_joules(), rel=0.02
        )

    def test_estimate_tracks_step_changes(self):
        env = Environment()
        cluster = one_node(env, idle=60.0, core=10.0)
        meter = EnergyMeter(env, cluster)
        pdu = PduSampler(env, cluster, period=1.0)
        node = cluster.nodes[0]

        def load():
            yield env.timeout(20.0)
            node.notify_busy(8)
            yield env.timeout(20.0)
            node.notify_busy(-8)
            yield env.timeout(20.0)
            pdu.stop()

        env.process(pdu.process())
        env.process(load())
        env.run()
        # 1 Hz sampling of a 20 s step: within a few percent
        assert pdu.energy_joules() == pytest.approx(
            meter.total_energy_joules(), rel=0.05
        )

    def test_quantisation_applied(self):
        env = Environment()
        cluster = one_node(env, idle=60.4)
        pdu = PduSampler(env, cluster, period=1.0, resolution_watts=1.0)
        env.process(pdu.process(duration=3.0))
        env.run()
        for sample in pdu.samples:
            assert sample.watts == pytest.approx(round(sample.watts))

    def test_precision_noise_is_seeded(self):
        def trace(seed):
            env = Environment()
            cluster = one_node(env)
            pdu = PduSampler(env, cluster, period=1.0, precision=0.015, seed=seed)
            env.process(pdu.process(duration=10.0))
            env.run()
            return [s.watts for s in pdu.samples]

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_too_few_samples_zero_energy(self):
        env = Environment()
        pdu = PduSampler(env, one_node(env))
        assert pdu.energy_joules() == 0.0
