"""Tests for workload specs, the performance model and learning curves."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tune.faults import CrashSpec, FaultModel
from repro.workloads.accuracy import (
    accuracy_at_epoch,
    accuracy_curve,
    asymptotic_accuracy,
    batch_penalty,
    convergence_rate,
    dropout_penalty,
    embedding_penalty,
    lr_penalty,
)
from repro.workloads.perfmodel import (
    MIN_CORE_SLICE,
    epoch_cost,
    epoch_cost_batch,
    epoch_time,
    memory_penalty,
    updates_per_epoch,
    working_set_gb,
)
from repro.workloads.registry import (
    ALL_WORKLOADS,
    CNN_NEWS20,
    LENET_MNIST,
    get_workload,
    type12_workloads,
    workloads_of_type,
)
from repro.workloads.spec import (
    HyperParams,
    SystemParams,
    TrialConfig,
    paper_system_grid,
    rng_for,
    stable_seed,
)

hyper_strategy = st.builds(
    HyperParams,
    batch_size=st.sampled_from([32, 64, 128, 256, 512, 1024]),
    dropout=st.floats(min_value=0.0, max_value=0.5),
    learning_rate=st.floats(min_value=1e-3, max_value=1e-1),
    epochs=st.integers(min_value=1, max_value=100),
)
system_strategy = st.builds(
    SystemParams,
    cores=st.sampled_from([1, 2, 4, 8, 16]),
    memory_gb=st.sampled_from([4.0, 8.0, 16.0, 32.0]),
)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_order_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_rng_reproducible(self):
        assert rng_for("x").random() == rng_for("x").random()


class TestParams:
    def test_hyper_validation(self):
        with pytest.raises(ValueError):
            HyperParams(batch_size=0)
        with pytest.raises(ValueError):
            HyperParams(dropout=1.0)
        with pytest.raises(ValueError):
            HyperParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            HyperParams(epochs=0)

    def test_system_validation(self):
        with pytest.raises(ValueError):
            SystemParams(cores=0)
        with pytest.raises(ValueError):
            SystemParams(memory_gb=0)

    @given(hyper_strategy)
    @settings(max_examples=50, deadline=None)
    def test_hyper_dict_roundtrip(self, hyper):
        assert HyperParams.from_dict(hyper.as_dict()) == hyper

    @given(system_strategy)
    @settings(max_examples=30, deadline=None)
    def test_system_dict_roundtrip(self, system):
        assert SystemParams.from_dict(system.as_dict()) == system

    def test_replace(self):
        hp = HyperParams().replace(batch_size=128)
        assert hp.batch_size == 128

    def test_paper_system_grid_is_48_over_4_batches(self):
        grid = paper_system_grid()
        assert len(grid) == 12  # 3 cores x 4 memory
        assert len(set(grid)) == 12


SPECS = [
    HyperParams(batch_size=64, dropout=0.1),
    SystemParams(cores=8, memory_gb=24),
    LENET_MNIST,
]


#: the memoized specs, each kind once (``FaultModel`` holds nested specs).
HASHED = SPECS + [FaultModel(crash=CrashSpec(rate_per_epoch=0.1))]


class TestSpecPickle:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_pickle_leaves_the_repr_memo_out(self, spec):
        before = pickle.dumps(spec)
        repr(spec)
        assert "_cached_repr" in vars(spec)
        after = pickle.dumps(spec)
        assert b"_cached_repr" not in after
        assert after == before

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_round_trip_keeps_repr_eq_and_hash(self, spec):
        loaded = pickle.loads(pickle.dumps(spec))
        assert "_cached_repr" not in vars(loaded)
        assert repr(loaded) == repr(spec)
        assert loaded == spec
        assert hash(loaded) == hash(spec)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: type(s).__name__)
    def test_pickle_carrying_the_memo_loads(self, spec, monkeypatch):
        # Without __getstate__, specs pickle their memo as they used to.
        repr(spec)
        monkeypatch.delattr(type(spec), "__getstate__")
        data = pickle.dumps(spec)
        monkeypatch.undo()
        assert b"_cached_repr" in data
        loaded = pickle.loads(data)
        assert type(loaded) is type(spec)
        assert repr(loaded) == repr(spec)
        assert loaded == spec
        assert hash(loaded) == hash(spec)

    @pytest.mark.parametrize("spec", HASHED, ids=lambda s: type(s).__name__)
    def test_pickle_leaves_the_hash_memo_out(self, spec):
        fresh = pickle.loads(pickle.dumps(spec))
        before = pickle.dumps(fresh)
        hash(fresh)
        assert "_cached_hash" in vars(fresh)
        after = pickle.dumps(fresh)
        assert b"_cached_hash" not in after
        assert after == before

    @pytest.mark.parametrize("spec", HASHED, ids=lambda s: type(s).__name__)
    def test_pickle_carrying_no_memo_loads(self, spec, monkeypatch):
        fresh = pickle.loads(pickle.dumps(spec))
        monkeypatch.delattr(type(spec), "__getstate__")
        data = pickle.dumps(fresh)
        monkeypatch.undo()
        assert b"_cached_repr" not in data and b"_cached_hash" not in data
        loaded = pickle.loads(data)
        assert type(loaded) is type(spec)
        assert repr(loaded) == repr(spec)
        assert loaded == spec
        assert hash(loaded) == hash(spec)

    @pytest.mark.parametrize("spec", HASHED, ids=lambda s: type(s).__name__)
    def test_hash_is_the_generated_one(self, spec):
        # A frozen dataclass hashes the tuple of its fields.
        fields = tuple(getattr(spec, f.name) for f in dataclasses.fields(spec))
        fresh = pickle.loads(pickle.dumps(spec))
        assert hash(fresh) == hash(fields)
        assert hash(fresh) == hash(fields)  # the memo gives the same


class TestRegistry:
    def test_seven_workloads(self):
        assert len(ALL_WORKLOADS) == 7

    def test_table3_values(self):
        lenet = get_workload("lenet-mnist")
        assert lenet.datasize_mb == 12.0
        assert lenet.train_files == 60_000
        assert lenet.test_files == 10_000
        news = get_workload("cnn-news20")
        assert news.train_files == 11_307
        assert news.test_files == 7_538

    def test_types(self):
        assert len(workloads_of_type("I")) == 2
        assert len(workloads_of_type("II")) == 2
        assert len(workloads_of_type("III")) == 3
        assert len(type12_workloads()) == 4

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            get_workload("nope")
        with pytest.raises(ValueError):
            workloads_of_type("IV")

    def test_nlp_flags(self):
        assert get_workload("cnn-news20").uses_embedding
        assert get_workload("lstm-news20").uses_embedding
        assert not get_workload("lenet-mnist").uses_embedding


class TestPerfModel:
    def cfg(self, batch=64, cores=4, memory=32.0, workload=LENET_MNIST):
        return TrialConfig(
            workload,
            HyperParams(batch_size=batch),
            SystemParams(cores=cores, memory_gb=memory),
        )

    def test_updates_per_epoch(self):
        assert updates_per_epoch(LENET_MNIST, HyperParams(batch_size=64)) == 938
        assert updates_per_epoch(LENET_MNIST, HyperParams(batch_size=60_000)) == 1

    def test_more_cores_hurt_small_batches(self):
        """The paper's Fig 3b claim (batch 64)."""
        times = [
            epoch_time(self.cfg(batch=64, cores=k), noisy=False) for k in (1, 2, 4, 8)
        ]
        assert times == sorted(times)

    def test_more_cores_help_large_batches(self):
        times = [
            epoch_time(self.cfg(batch=1024, cores=k), noisy=False)
            for k in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_larger_batches_train_faster(self):
        """Fig 3a: duration drops with batch size (fewer sync rounds)."""
        times = [
            epoch_time(self.cfg(batch=b), noisy=False) for b in (32, 64, 256, 1024)
        ]
        assert times == sorted(times, reverse=True)

    def test_granularity_floor(self):
        """Below the per-core slice floor, compute stops shrinking."""
        c8 = epoch_cost(self.cfg(batch=64, cores=8), noisy=False)
        c4 = epoch_cost(self.cfg(batch=64, cores=4), noisy=False)
        # both are floored at MIN_CORE_SLICE=64: compute differs only
        # by the parallel-scaling loss factor
        assert c8.compute_s > c4.compute_s
        assert MIN_CORE_SLICE == 64.0

    def test_memory_penalty_kicks_in(self):
        ws = working_set_gb(LENET_MNIST, HyperParams(batch_size=1024))
        assert ws > 4.0
        assert memory_penalty(
            LENET_MNIST,
            HyperParams(batch_size=1024),
            SystemParams(cores=4, memory_gb=4.0),
        ) > 1.0
        assert memory_penalty(
            LENET_MNIST,
            HyperParams(batch_size=1024),
            SystemParams(cores=4, memory_gb=32.0),
        ) == 1.0

    def test_embedding_increases_working_set(self):
        small = working_set_gb(CNN_NEWS20, HyperParams(embedding_dim=50))
        big = working_set_gb(CNN_NEWS20, HyperParams(embedding_dim=300))
        assert big > small

    def test_contention_scales_time(self):
        base = epoch_time(self.cfg(), contention=1.0, noisy=False)
        shared = epoch_time(self.cfg(), contention=3.0, noisy=False)
        assert shared > 2.0 * base

    def test_contention_below_one_rejected(self):
        with pytest.raises(ValueError):
            epoch_time(self.cfg(), contention=0.5)

    def test_training_time_sums_epochs(self):
        cfg = TrialConfig(
            LENET_MNIST,
            HyperParams(batch_size=64, epochs=5),
            SystemParams(cores=4, memory_gb=16),
        )
        per_epoch = [epoch_time(cfg, epoch=e) for e in range(5)]
        total = sum(epoch_cost_batch(cfg, range(5)).total_s)
        assert total == pytest.approx(sum(per_epoch))

    def test_noise_deterministic(self):
        cfg = self.cfg()
        assert epoch_time(cfg, epoch=2) == epoch_time(cfg, epoch=2)
        assert epoch_time(cfg, epoch=2) != epoch_time(cfg, epoch=3)

    def test_utilisation_in_unit_interval(self):
        cost = epoch_cost(self.cfg(), noisy=False)
        assert 0.0 < cost.utilisation <= 1.0

    @given(hyper=hyper_strategy, system=system_strategy)
    @settings(max_examples=100, deadline=None)
    def test_epoch_time_always_positive(self, hyper, system):
        for workload in (LENET_MNIST, CNN_NEWS20):
            cfg = TrialConfig(workload, hyper, system)
            assert epoch_time(cfg, noisy=False) > 0
            assert epoch_time(cfg, noisy=True) > 0

    @given(system=system_strategy)
    @settings(max_examples=50, deadline=None)
    def test_memory_penalty_at_least_one(self, system):
        for batch in (32, 1024):
            assert (
                memory_penalty(LENET_MNIST, HyperParams(batch_size=batch), system)
                >= 1.0
            )


class TestAccuracyModel:
    def test_penalties_peak_at_optimum(self):
        w = LENET_MNIST
        assert lr_penalty(w, 10.0**w.log_lr_opt) == pytest.approx(1.0)
        assert lr_penalty(w, 10.0 ** (w.log_lr_opt + 1)) < 1.0
        assert batch_penalty(w, 32) == 1.0
        assert batch_penalty(w, 1024) < batch_penalty(w, 256)
        assert dropout_penalty(w, w.dropout_opt) == pytest.approx(1.0)
        assert dropout_penalty(w, 0.0) < 1.0

    def test_embedding_penalty_only_for_nlp(self):
        assert embedding_penalty(LENET_MNIST, 50) == 1.0
        assert embedding_penalty(CNN_NEWS20, CNN_NEWS20.embedding_opt) == pytest.approx(
            1.0
        )
        assert embedding_penalty(CNN_NEWS20, 50) < 1.0

    def test_curve_monotone_without_noise(self):
        curve = accuracy_curve(LENET_MNIST, HyperParams(epochs=30), 30, noisy=False)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_curve_approaches_asymptote(self):
        hp = HyperParams(epochs=100)
        a_max = asymptotic_accuracy(LENET_MNIST, hp)
        final = accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, noisy=False)
        assert final == pytest.approx(a_max, rel=0.01)

    def test_epoch_zero_is_floor(self):
        acc = accuracy_at_epoch(LENET_MNIST, HyperParams(), 0)
        assert acc < 0.1

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            accuracy_at_epoch(LENET_MNIST, HyperParams(), -1)

    def test_large_batch_converges_slower(self):
        small = convergence_rate(LENET_MNIST, HyperParams(batch_size=32))
        large = convergence_rate(LENET_MNIST, HyperParams(batch_size=1024))
        assert large < small

    def test_system_params_do_not_affect_accuracy(self):
        """The core PipeTune premise."""
        hp = HyperParams(epochs=10)
        final = accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, noisy=False)
        assert final == accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, noisy=False)
        # (accuracy API has no system input at all — by construction)

    def test_noise_deterministic_per_seed(self):
        hp = HyperParams(epochs=5)
        a = accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, trial_seed=1)
        b = accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, trial_seed=1)
        c = accuracy_at_epoch(LENET_MNIST, hp, hp.epochs, trial_seed=2)
        assert a == b
        assert a != c

    @given(hyper=hyper_strategy, epoch=st.integers(min_value=0, max_value=150))
    @settings(max_examples=150, deadline=None)
    def test_accuracy_always_in_unit_interval(self, hyper, epoch):
        for workload in ALL_WORKLOADS[:3]:
            acc = accuracy_at_epoch(workload, hyper, epoch, noisy=True)
            assert 0.0 <= acc <= 1.0

    @given(hyper=hyper_strategy)
    @settings(max_examples=80, deadline=None)
    def test_asymptote_bounded_by_base(self, hyper):
        for workload in ALL_WORKLOADS:
            assert 0.0 < asymptotic_accuracy(workload, hyper) <= workload.base_accuracy
