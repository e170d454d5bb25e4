"""Tests for the trial trainer (DES training process + hooks)."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.simulation.power import EnergyMeter
from repro.tune.errors import (
    NodeDeparted,
    TrialCrashed,
    TrialOutOfMemory,
    TrialPreempted,
)
from repro.tune.faults import ChurnSpec, CrashSpec, FaultModel, PreemptionSpec
from repro.tune.trainer import TrialContext, TrialHooks, run_trial
from repro.tune.trial import EpochRecord
from repro.workloads.accuracy import accuracy_at_epoch
from repro.workloads.perfmodel import active_cores, epoch_cost
from repro.workloads.registry import CNN_NEWS20, LENET_MNIST
from repro.workloads.spec import HyperParams, SystemParams, TrialConfig, stable_seed

from oracles import draw_event, trial_energy_j


def make_env(nodes=1, cores=16, memory=64.0):
    env = Environment()
    cluster = SimCluster(
        env,
        [NodeSpec(name=f"n{i}", cores=cores, memory_gb=memory) for i in range(nodes)],
    )
    return env, cluster


def start_trial(env, cluster, **kwargs):
    defaults = dict(
        trial_id="t0",
        workload=LENET_MNIST,
        hyper=HyperParams(batch_size=64, epochs=4),
        system=SystemParams(cores=4, memory_gb=16.0),
    )
    defaults.update(kwargs)
    return env.process(run_trial(env, cluster, **defaults))


def run(env, cluster, **kwargs):
    process = start_trial(env, cluster, **kwargs)
    env.run()
    return process.value


def assert_node_free(node):
    assert node.cores.level == node.spec.cores
    assert node.memory.level == node.spec.memory_gb
    assert node.power_watts == node.spec.idle_watts


class TestBasicTraining:
    def test_runs_all_epochs(self):
        env, cluster = make_env()
        result = run(env, cluster)
        assert result.epochs_run == 4
        assert len(result.records) == 4
        assert [r.epoch for r in result.records] == [1, 2, 3, 4]

    def test_training_time_is_sum_of_epochs(self):
        env, cluster = make_env()
        result = run(env, cluster)
        assert result.training_time_s == pytest.approx(
            sum(r.duration_s for r in result.records)
        )

    def test_wall_time_matches_training_when_unqueued(self):
        env, cluster = make_env()
        result = run(env, cluster)
        assert result.wall_time_s == pytest.approx(result.training_time_s)

    def test_accuracy_is_final_epoch(self):
        env, cluster = make_env()
        result = run(env, cluster)
        assert result.accuracy == result.records[-1].accuracy

    def test_resources_released_at_end(self):
        env, cluster = make_env()
        run(env, cluster)
        assert_node_free(cluster.nodes[0])

    def test_resume_skips_done_epochs(self):
        env, cluster = make_env()
        result = run(env, cluster, start_epoch=2, target_epochs=4)
        assert len(result.records) == 2
        assert result.epochs_run == 4
        assert [r.epoch for r in result.records] == [3, 4]

    def test_invalid_target_epochs(self):
        env, cluster = make_env()
        with pytest.raises(ValueError):
            run(env, cluster, start_epoch=4, target_epochs=4)

    def test_setup_cost_delays_training(self):
        env, cluster = make_env()
        a = run(env, cluster, setup_cost_s=0.0)
        env2, cluster2 = make_env()
        b = run(env2, cluster2, trial_id="t0", setup_cost_s=30.0)
        assert b.wall_time_s == pytest.approx(a.wall_time_s + 30.0)

    def test_negative_setup_cost_rejected(self):
        env, cluster = make_env()
        with pytest.raises(ValueError):
            run(env, cluster, setup_cost_s=-1.0)

    def test_negative_setup_cost_does_not_leak_allocation(self):
        env, cluster = make_env()
        with pytest.raises(ValueError):
            run(env, cluster, setup_cost_s=-1.0)
        assert_node_free(cluster.nodes[0])

    def test_deterministic_given_trial_id(self):
        env, cluster = make_env()
        a = run(env, cluster, trial_id="same")
        env2, cluster2 = make_env()
        b = run(env2, cluster2, trial_id="same")
        assert a.accuracy == b.accuracy
        assert a.training_time_s == b.training_time_s


class TestPowerListeners:
    EIGHT_CORES = SystemParams(cores=8, memory_gb=16.0)

    def test_power_listener_attached_mid_trial_sees_every_epoch(self):
        """A listener attached during epoch 3 of 8 sees that epoch end,
        then a rise and a fall for each of the 5 epochs after it."""
        kwargs = dict(
            hyper=HyperParams(batch_size=64, epochs=8), system=self.EIGHT_CORES
        )
        full_env, full_cluster = make_env()
        full = run(full_env, full_cluster, **kwargs)
        epoch_ends = np.cumsum([r.duration_s for r in full.records])
        attach_at = 0.5 * (epoch_ends[1] + epoch_ends[2])

        env, cluster = make_env()
        node = cluster.nodes[0]
        watts = []

        def attach():
            yield env.timeout(attach_at)
            node.add_power_listener(lambda _node, _now, w: watts.append(w))

        env.process(attach())
        process = start_trial(env, cluster, **kwargs)
        env.run()
        assert process.ok
        assert len(watts) == 1 + 2 * 5
        assert watts[-1] == node.spec.idle_watts


class ContextCapture(TrialHooks):
    """Default hooks that also expose the trial context."""

    def __init__(self):
        self.ctx = None

    def on_start(self, ctx):
        self.ctx = ctx


def record_tuple(record):
    return (
        record.epoch,
        record.duration_s,
        record.accuracy,
        record.system,
        record.energy_j,
        record.profiled,
        record.probed,
    )


def first_fault(faults, trial_id, epochs):
    """``(epoch, kind, fraction)`` of the first fault drawn, or None."""
    for epoch in range(1, epochs + 1):
        event = draw_event(faults, trial_id, 0, epoch)
        if event is not None:
            return (epoch,) + event
    return None


class TestFailedTrialFreesNode:
    """A trial that dies mid-run hands its node back whole: allocation
    released and its busy cores no longer drawing power. What it ran
    before dying is a prefix of the healthy run, and the simulated
    clock stops where the failure struck."""

    EIGHT_CORES = SystemParams(cores=8, memory_gb=16.0)
    FAULTS = {
        "preemption": (PreemptionSpec, TrialPreempted),
        "churn": (ChurnSpec, NodeDeparted),
        "crash": (CrashSpec, TrialCrashed),
    }

    def healthy_run(self, trial_id, hyper, workload=LENET_MNIST):
        env, cluster = make_env()
        return run(
            env,
            cluster,
            trial_id=trial_id,
            workload=workload,
            hyper=hyper,
            system=self.EIGHT_CORES,
        )

    def failed_run(self, expected, **kwargs):
        """Run a trial that must fail with ``expected``; returns
        ``(env, cluster, hooks, error)``."""
        env, cluster = make_env()
        hooks = kwargs.pop("hooks", None) or ContextCapture()
        kwargs.setdefault("system", self.EIGHT_CORES)
        process = start_trial(env, cluster, hooks=hooks, **kwargs)
        env.run()
        assert not process.ok
        with pytest.raises(expected) as err:
            _ = process.value
        return env, cluster, hooks, err.value

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    @pytest.mark.parametrize(
        "workload", [LENET_MNIST, CNN_NEWS20], ids=["lenet", "news20"]
    )
    def test_certain_fault_charges_struck_fraction_of_first_epoch(self, kind, workload):
        spec, error = self.FAULTS[kind]
        faults = FaultModel(**{kind: spec(rate_per_epoch=1.0)})
        hyper = HyperParams(batch_size=64, epochs=4)
        env, cluster, hooks, err = self.failed_run(
            error, workload=workload, hyper=hyper, faults=faults
        )
        assert err.trial_id == "t0"
        assert err.epoch == 1
        assert hooks.ctx.records == []
        _, fraction = draw_event(faults, "t0", 0, 1)
        config = TrialConfig(workload, hyper, self.EIGHT_CORES)
        assert env.now == fraction * epoch_cost(config, epoch=1).total_s
        assert_node_free(cluster.nodes[0])

    @pytest.mark.parametrize("trial_id", ["t0", "t1", "t2", "t3", "t4"])
    def test_crash_lands_on_first_drawn_epoch(self, trial_id):
        faults = FaultModel(crash=CrashSpec(rate_per_epoch=0.25))
        hyper = HyperParams(batch_size=64, epochs=8)
        full = self.healthy_run(trial_id, hyper)
        epoch, kind, fraction = first_fault(faults, trial_id, 8)
        assert kind == "crash"
        env, cluster, hooks, err = self.failed_run(
            TrialCrashed, trial_id=trial_id, hyper=hyper, faults=faults
        )
        assert err.epoch == epoch
        records = [record_tuple(r) for r in hooks.ctx.records]
        assert records == [record_tuple(r) for r in full.records[: epoch - 1]]
        done = sum(r.duration_s for r in full.records[: epoch - 1])
        struck = fraction * full.records[epoch - 1].duration_s
        assert env.now == pytest.approx(done + struck, rel=1e-12)
        assert_node_free(cluster.nodes[0])

    @pytest.mark.parametrize(
        "trial_id, struck_epoch, checkpoint",
        [("t0", 6, 3), ("t1", 3, 0), ("t3", 5, 3), ("t4", 2, 0)],
    )
    def test_preemption_keeps_last_checkpoint(self, trial_id, struck_epoch, checkpoint):
        spec = PreemptionSpec(rate_per_epoch=0.25, checkpoint_every_epochs=3)
        faults = FaultModel(preemption=spec)
        assert first_fault(faults, trial_id, 8)[:2] == (struck_epoch, "preemption")
        _, cluster, hooks, err = self.failed_run(
            TrialPreempted,
            trial_id=trial_id,
            hyper=HyperParams(batch_size=64, epochs=8),
            faults=faults,
        )
        assert (err.epoch, err.checkpoint_epoch) == (struck_epoch, checkpoint)
        assert len(hooks.ctx.records) == struck_epoch - 1
        assert_node_free(cluster.nodes[0])

    @pytest.mark.parametrize("failing_epoch", [1, 4, 8])
    def test_hook_error_after_epoch_frees_node(self, failing_epoch):
        class FailAfter(ContextCapture):
            def after_epoch(self, ctx, record):
                if record.epoch == failing_epoch:
                    raise RuntimeError("hook failed")

        hyper = HyperParams(batch_size=64, epochs=8)
        full = self.healthy_run("t0", hyper)
        env, cluster, hooks, _ = self.failed_run(
            RuntimeError, hyper=hyper, hooks=FailAfter()
        )
        records = [record_tuple(r) for r in hooks.ctx.records]
        assert records == [record_tuple(r) for r in full.records[:failing_epoch]]
        assert env.now == pytest.approx(
            sum(r.duration_s for r in full.records[:failing_epoch]), rel=1e-12
        )
        assert_node_free(cluster.nodes[0])

    def test_hook_error_after_setup_releases_allocation(self):
        class FailFirstEpoch(ContextCapture):
            def before_epoch(self, ctx, epoch):
                raise RuntimeError("hook failed")

        env, cluster, hooks, _ = self.failed_run(
            RuntimeError, hooks=FailFirstEpoch(), setup_cost_s=100.0
        )
        assert env.now == 100.0
        assert hooks.ctx.records == []
        assert_node_free(cluster.nodes[0])

    def test_oom_after_mid_trial_shrink(self):
        """Shrinking memory below the working set at epoch 3 kills the
        trial there, after half an epoch at the new shape."""
        small = SystemParams(cores=8, memory_gb=4.0)

        class Shrink(ContextCapture):
            def before_epoch(self, ctx, epoch):
                return small if epoch == 3 else None

        hyper = HyperParams(batch_size=1024, embedding_dim=300, epochs=6)
        full = self.healthy_run("t0", hyper, workload=CNN_NEWS20)
        env, cluster, hooks, err = self.failed_run(
            TrialOutOfMemory,
            workload=CNN_NEWS20,
            hyper=hyper,
            hooks=Shrink(),
            oom_threshold=2.0,
        )
        assert err.memory_gb == 4.0
        records = [record_tuple(r) for r in hooks.ctx.records]
        assert records == [record_tuple(r) for r in full.records[:2]]
        shrunk = TrialConfig(CNN_NEWS20, hyper, small)
        thrash = 0.5 * epoch_cost(shrunk, epoch=3).total_s
        assert env.now == pytest.approx(
            sum(r.duration_s for r in full.records[:2]) + thrash, rel=1e-12
        )
        assert_node_free(cluster.nodes[0])


class TestCostSegments:
    """Epoch durations come from one ``epoch_cost_batch`` per
    system-config segment; each must equal the scalar ``epoch_cost``
    of its epoch at the shape it ran with."""

    def test_reshaped_epochs_match_scalar_costs(self):
        class Downsize(TrialHooks):
            def before_epoch(self, ctx, epoch):
                if epoch == 3:
                    return SystemParams(cores=8, memory_gb=8.0)
                return None

        env, cluster = make_env()
        hyper = HyperParams(batch_size=64, epochs=6)
        result = run(env, cluster, hyper=hyper, hooks=Downsize())
        assert [r.system.cores for r in result.records] == [4, 4, 8, 8, 8, 8]
        for record in result.records:
            config = TrialConfig(LENET_MNIST, hyper, record.system)
            expected = epoch_cost(config, epoch=record.epoch).total_s
            assert record.duration_s == expected  # bit-exact

    def test_resumed_segment_is_offset_by_start_epoch(self):
        hyper = HyperParams(batch_size=64, epochs=9)
        system = SystemParams(cores=4, memory_gb=16.0)
        env, cluster = make_env()
        result = run(
            env, cluster, hyper=hyper, system=system, start_epoch=3, setup_cost_s=20.0
        )
        assert [r.epoch for r in result.records] == list(range(4, 10))
        config = TrialConfig(LENET_MNIST, hyper, system)
        expected = [epoch_cost(config, epoch=e).total_s for e in range(4, 10)]
        assert [r.duration_s for r in result.records] == expected  # bit-exact
        assert result.wall_time_s == pytest.approx(20.0 + sum(expected))

    def test_oom_thrash_is_half_the_first_epoch(self):
        hyper = HyperParams(batch_size=1024, embedding_dim=300, epochs=3)
        system = SystemParams(cores=4, memory_gb=4.0)
        env, cluster = make_env()
        process = start_trial(
            env,
            cluster,
            workload=CNN_NEWS20,
            hyper=hyper,
            system=system,
            oom_threshold=2.0,
        )
        env.run()
        with pytest.raises(TrialOutOfMemory):
            _ = process.value
        config = TrialConfig(CNN_NEWS20, hyper, system)
        assert env.now == 0.5 * epoch_cost(config, epoch=1).total_s
        assert_node_free(cluster.nodes[0])

    def test_single_epoch_trial(self):
        env, cluster = make_env()
        result = run(env, cluster, hyper=HyperParams(batch_size=64, epochs=1))
        assert [r.epoch for r in result.records] == [1]


class TestEnergyAccounting:
    def test_trial_energy_positive_and_recorded(self):
        env, cluster = make_env()
        result = run(env, cluster)
        assert result.energy_j > 0
        assert result.energy_j == pytest.approx(
            sum(r.energy_j for r in result.records)
        )

    def test_trial_energy_below_node_energy(self):
        """Attributed energy never exceeds what the node consumed."""
        env, cluster = make_env()
        meter = EnergyMeter(env, cluster)
        result = run(env, cluster)
        assert result.energy_j <= meter.total_energy_joules() + 1e-6

    def test_trial_energy_helper(self):
        env, cluster = make_env()

        class Grab(TrialHooks):
            allocation = None

            def on_start(self, ctx):
                Grab.allocation = ctx.allocation

        run(env, cluster, hooks=Grab())
        energy = trial_energy_j(
            SystemParams(cores=4, memory_gb=16.0),
            Grab.allocation,
            4.0,
            10.0,
        )
        spec = Grab.allocation.node.spec
        expected = (4.0 * spec.core_watts + spec.idle_watts * 4 / spec.cores) * 10.0
        assert energy == pytest.approx(expected)


    def test_record_energy_equals_per_epoch_oracle(self):
        """One watts figure per system segment gives every epoch the
        energy the per-epoch formula gives it, bit for bit, across
        reshapes and clock changes."""
        plan = {
            3: SystemParams(cores=8, memory_gb=16.0, cpu_freq_ghz=2.4),
            5: SystemParams(cores=2, memory_gb=8.0),
        }
        shapes = {}

        class Reshape(TrialHooks):
            def before_epoch(self, ctx, epoch):
                return plan.get(epoch)

            def after_epoch(self, ctx, record):
                node, cores = ctx.allocation.node, ctx.allocation.cores
                shapes[record.epoch] = SimpleNamespace(node=node, cores=cores)

        hyper = HyperParams(batch_size=64, epochs=6)
        env, cluster = make_env()
        result = run(env, cluster, hyper=hyper, hooks=Reshape())
        assert {r.system.cores for r in result.records} == {4, 8, 2}
        for record in result.records:
            config = TrialConfig(LENET_MNIST, hyper, record.system)
            busy = active_cores(config, epoch_cost(config, epoch=record.epoch))
            expected = trial_energy_j(
                record.system, shapes[record.epoch], busy, record.duration_s
            )
            assert record.energy_j == expected


class TestHooks:
    def test_hooks_called_in_order(self):
        calls = []

        class Spy(TrialHooks):
            def on_start(self, ctx):
                calls.append("start")

            def before_epoch(self, ctx, epoch):
                calls.append(f"before{epoch}")
                return None

            def after_epoch(self, ctx, record):
                calls.append(f"after{record.epoch}")

            def on_end(self, ctx, result):
                calls.append("end")

        env, cluster = make_env()
        run(env, cluster, hooks=Spy(), hyper=HyperParams(batch_size=64, epochs=2))
        assert calls == ["start", "before1", "after1", "before2", "after2", "end"]

    def test_before_epoch_resizes_system(self):
        class Downsize(TrialHooks):
            def before_epoch(self, ctx, epoch):
                if epoch == 2:
                    return SystemParams(cores=8, memory_gb=8.0)
                return None

        env, cluster = make_env()
        result = run(env, cluster, hooks=Downsize())
        assert result.records[0].system.cores == 4
        assert result.records[1].system.cores == 8
        assert result.final_system.cores == 8

    def test_failed_grow_keeps_old_shape(self):
        class GrowTooBig(TrialHooks):
            def before_epoch(self, ctx, epoch):
                if epoch == 2:
                    return SystemParams(cores=99, memory_gb=8.0)
                return None

        env, cluster = make_env(cores=16)
        result = run(env, cluster, hooks=GrowTooBig())
        assert result.records[1].system.cores == 4  # unchanged

    def test_failed_grow_keeps_cpu_clock(self):
        # The node's other 8 cores are held elsewhere, so the grow
        # fails; the clock needs no resources and must stay at 2.4 GHz.
        slow = SystemParams(cores=8, memory_gb=16.0, cpu_freq_ghz=2.4)

        class GrowAtSameClock(TrialHooks):
            def before_epoch(self, ctx, epoch):
                return slow.replace(cores=16) if epoch == 2 else None

        env, cluster = make_env(cores=16)
        assert cluster.nodes[0].cores.try_get(8)
        result = run(
            env,
            cluster,
            hyper=HyperParams(batch_size=64, epochs=3),
            system=slow,
            hooks=GrowAtSameClock(),
        )
        observed = [
            (r.epoch, r.system.cores, r.system.cpu_freq_ghz) for r in result.records
        ]
        assert observed == [(1, 8, 2.4), (2, 8, 2.4), (3, 8, 2.4)]
        assert result.final_system == slow

    def test_profiling_adds_overhead_and_profile(self):
        class ProfileFirst(TrialHooks):
            def wants_profiling(self, ctx, epoch):
                return epoch == 1

        env, cluster = make_env()
        result = run(env, cluster, hooks=ProfileFirst())
        assert result.records[0].profiled
        assert result.records[0].profile is not None
        assert not result.records[1].profiled
        # overhead: profiled epoch slower than the same epoch unprofiled
        env2, cluster2 = make_env()
        plain = run(env2, cluster2)
        assert result.records[0].duration_s > plain.records[0].duration_s

    def test_extra_delay_hook(self):
        class Slow(TrialHooks):
            def epoch_extra_delay_s(self, ctx, epoch):
                return 7.0

        env, cluster = make_env()
        slow = run(env, cluster, hooks=Slow())
        env2, cluster2 = make_env()
        fast = run(env2, cluster2)
        assert slow.training_time_s == pytest.approx(
            fast.training_time_s + 4 * 7.0
        )

    def test_probe_epoch_flag(self):
        class Probe(TrialHooks):
            def is_probe_epoch(self, ctx, epoch):
                return epoch == 2

        env, cluster = make_env()
        result = run(env, cluster, hooks=Probe())
        assert [r.probed for r in result.records] == [False, True, False, False]

    def test_context_exposes_targets(self):
        seen = {}

        class Inspect(TrialHooks):
            def on_start(self, ctx):
                seen["target"] = ctx.target_epochs
                seen["start"] = ctx.start_epoch

        env, cluster = make_env()
        run(env, cluster, hooks=Inspect(), start_epoch=1, target_epochs=3)
        assert seen == {"target": 3, "start": 1}


class TestTrialResultHelpers:
    def test_mean_epoch_time_uses_final_system(self):
        class Downsize(TrialHooks):
            def before_epoch(self, ctx, epoch):
                if epoch == 3:
                    return SystemParams(cores=8, memory_gb=8.0)
                return None

        env, cluster = make_env()
        result = run(env, cluster, hooks=Downsize())
        final_records = [r for r in result.records if r.system.cores == 8]
        expected = sum(r.duration_s for r in final_records) / len(final_records)
        assert result.mean_epoch_time_s() == pytest.approx(expected)

    def test_full_training_time_estimate_scales_by_epochs(self):
        env, cluster = make_env()
        result = run(env, cluster, start_epoch=2, target_epochs=4)
        assert result.full_training_time_estimate() == pytest.approx(
            result.mean_epoch_time_s() * 4
        )


class TestPhiloxStreamDerivation:
    """Prove the trainer's per-epoch noise comes from the reference
    counter-keyed Philox streams, not merely from *some* deterministic
    source: every record of a trial is reconstructed bit-exactly with
    ``Generator(Philox(key=stable_seed(...)))`` built by hand,
    replaying the exact float operations of the models.

    Under the draw-ahead blocks there is ONE stream per (trial, kind) —
    keyed with the literal ``"block"`` suffix and no epoch — and the
    epoch selects a position in its batched normal sequence."""

    @pytest.mark.parametrize(
        "workload, epochs, start_epoch, resize_at",
        [
            pytest.param(LENET_MNIST, 5, 0, None, id="lenet-mnist"),
            pytest.param(CNN_NEWS20, 5, 0, None, id="cnn-news20"),
            # Past the blocks' 32-draw first fill, resumed from a
            # checkpoint, with a second system-config segment.
            pytest.param(LENET_MNIST, 40, 3, 20, id="resumed-resized-40-epochs"),
        ],
    )
    def test_records_reconstruct_from_reference_streams(
        self, workload, epochs, start_epoch, resize_at
    ):
        hyper = HyperParams(batch_size=64, epochs=epochs)
        system = SystemParams(cores=8, memory_gb=16.0)
        resized = SystemParams(cores=12, memory_gb=24.0)

        class ResizeAt(TrialHooks):
            def before_epoch(self, ctx, epoch):
                return resized if epoch == resize_at else None

        env, cluster = make_env()
        result = run(
            env,
            cluster,
            workload=workload,
            hyper=hyper,
            system=system,
            start_epoch=start_epoch,
            hooks=ResizeAt(),
        )
        assert [r.epoch for r in result.records] == list(
            range(start_epoch + 1, epochs + 1)
        )
        expected_systems = {system} if resize_at is None else {system, resized}
        assert {r.system for r in result.records} == expected_systems
        trial_seed = stable_seed("trial", "t0", workload.name)

        def reference_draws(sigma, *key_parts):
            rng = np.random.Generator(
                np.random.Philox(key=stable_seed(*key_parts, "block"))
            )
            return rng.normal(0.0, sigma, size=epochs + 1)

        acc_draws = reference_draws(
            workload.accuracy_noise, workload.name, "acc-noise", hyper, trial_seed
        )
        time_draws = {
            segment: reference_draws(
                workload.runtime_noise, workload.name, "epoch-noise", hyper, segment
            )
            for segment in expected_systems
        }

        for record in result.records:
            noiseless = accuracy_at_epoch(
                workload, hyper, record.epoch, trial_seed=trial_seed, noisy=False
            )
            expected_accuracy = min(
                1.0, max(0.0, noiseless + acc_draws[record.epoch])
            )
            assert record.accuracy == expected_accuracy  # bit-exact

            config = TrialConfig(workload, hyper, record.system)
            noiseless_s = epoch_cost(config, epoch=record.epoch, noisy=False).total_s
            noise = time_draws[record.system][record.epoch]
            expected_duration = noiseless_s * max(0.5, 1.0 + noise)
            assert record.duration_s == expected_duration  # bit-exact
