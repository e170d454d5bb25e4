"""Tests for the simulated PMU: events, multiplexing, profiler."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.counters.events import (
    COMPUTE_SIDE_MASK,
    EVENT_NAMES,
    FIXED_COUNTER_EVENTS,
    NUM_EVENTS,
    event_index,
    workload_signature,
)
from repro.counters.pmu import (
    NUM_FIXED_COUNTERS,
    NUM_GENERIC_COUNTERS,
    CounterReading,
    Pmu,
    _spans_array,
    _true_count_rows,
)
from repro.counters.profiler import EpochProfile, EpochProfiler, average_profiles
from repro.workloads.registry import (
    CNN_NEWS20,
    LENET_FASHION,
    LENET_MNIST,
    LSTM_NEWS20,
)
from repro.workloads.spec import HyperParams, SystemParams, TrialConfig


def config(workload=LENET_MNIST, batch=64, cores=8, memory=16.0):
    return TrialConfig(
        workload,
        HyperParams(batch_size=batch),
        SystemParams(cores=cores, memory_gb=memory),
    )


def is_compute_side(event):
    """Whether an event's rate is driven by the model (vs the dataset)."""
    return bool(COMPUTE_SIDE_MASK[event_index(event)])


def true_counts(c, duration_s, busy_cores, epoch=0, noisy=True):
    """Ground-truth event counts of one interval: the PMU kernel's
    one-row case, before multiplexing."""
    spans, _ = _spans_array([duration_s])
    return _true_count_rows(c, spans, busy_cores, epoch, noisy)[0]


#: fraction of wall time each multiplexed event is measured: the
#: generic counters shared by every event without a fixed counter.
GENERIC_SHARE = NUM_GENERIC_COUNTERS / (NUM_EVENTS - len(FIXED_COUNTER_EVENTS))


def is_multiplexed(reading):
    return reading.time_running < reading.time_enabled


def final_count(reading):
    """Kernel rescaling: ``raw * enabled / running`` (perf wiki), the
    quotient first; an event never observed reads 0."""
    if reading.time_running <= 0:
        return 0.0
    return reading.raw_count * (reading.time_enabled / reading.time_running)


class TestEvents:
    def test_58_events_as_in_paper(self):
        assert NUM_EVENTS == 58
        assert len(set(EVENT_NAMES)) == 58

    def test_fixed_counter_events_exist(self):
        for event in FIXED_COUNTER_EVENTS:
            assert event in EVENT_NAMES

    def test_event_index_roundtrip(self):
        for i, name in enumerate(EVENT_NAMES):
            assert event_index(name) == i

    def test_unknown_event_raises(self):
        with pytest.raises(KeyError):
            event_index("made-up-event")

    def test_compute_vs_memory_partition(self):
        compute = [e for e in EVENT_NAMES if is_compute_side(e)]
        memory = [e for e in EVENT_NAMES if not is_compute_side(e)]
        assert compute and memory
        assert len(compute) + len(memory) == 58
        assert "instructions" in compute
        assert "LLC-load-misses" in memory

    def test_signature_deterministic(self):
        a = workload_signature(LENET_MNIST)
        b = workload_signature(LENET_MNIST)
        np.testing.assert_array_equal(a, b)

    def test_signature_positive(self):
        assert (workload_signature(CNN_NEWS20) > 0).all()

    # Two workloads sharing a model (or dataset) differ on the shared
    # side only by their independent wobbles: log10-ratio ~ N(0,
    # sqrt(2) * 0.05). A 0.35-decade bound is ~5 sigma of that — and an
    # order of magnitude below genuine cross-model spreads (sigma 0.5
    # per side), so the test stays stream-agnostic instead of leaning
    # on one lucky draw.
    WOBBLE_LOG10_BOUND = 0.35

    def test_same_model_shares_compute_side(self):
        """lenet-mnist and lenet-fashion share the model: compute-side
        rates identical up to the per-workload wobble."""
        a = workload_signature(LENET_MNIST)
        b = workload_signature(LENET_FASHION)
        for i, event in enumerate(EVENT_NAMES):
            if is_compute_side(event):
                assert abs(math.log10(a[i] / b[i])) < self.WOBBLE_LOG10_BOUND

    def test_same_dataset_shares_memory_side(self):
        a = workload_signature(CNN_NEWS20)
        b = workload_signature(LSTM_NEWS20)
        for i, event in enumerate(EVENT_NAMES):
            if not is_compute_side(event):
                assert abs(math.log10(a[i] / b[i])) < self.WOBBLE_LOG10_BOUND

    def test_different_models_differ(self):
        a = np.log10(workload_signature(LENET_MNIST))
        b = np.log10(workload_signature(CNN_NEWS20))
        assert np.abs(a - b).max() > 0.2


class TestTrueCounts:
    def test_scales_with_duration(self):
        c = config()
        short = true_counts(c, 10.0, 4.0, noisy=False)
        long = true_counts(c, 20.0, 4.0, noisy=False)
        np.testing.assert_allclose(long, 2.0 * short)

    def test_scales_with_busy_cores(self):
        c = config()
        few = true_counts(c, 10.0, 2.0, noisy=False)
        many = true_counts(c, 10.0, 8.0, noisy=False)
        np.testing.assert_allclose(many, 4.0 * few)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Pmu().final_counts(config(), -1.0, 4.0)

    def test_memory_pressure_inflates_misses(self):
        plenty = config(memory=32.0)
        starved = config(memory=2.0)
        a = true_counts(plenty, 10.0, 4.0, noisy=False)
        b = true_counts(starved, 10.0, 4.0, noisy=False)
        miss = event_index("LLC-load-misses")
        instructions = event_index("instructions")
        assert b[miss] > a[miss]
        assert b[instructions] == pytest.approx(a[instructions])

    def test_noise_deterministic_per_epoch(self):
        c = config()
        a = true_counts(c, 10.0, 4.0, epoch=3)
        b = true_counts(c, 10.0, 4.0, epoch=3)
        other = true_counts(c, 10.0, 4.0, epoch=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, other)


class TestPmu:
    def test_counter_inventory(self):
        assert NUM_FIXED_COUNTERS == 3
        assert NUM_GENERIC_COUNTERS == 2

    def test_generic_share(self):
        readings = Pmu().read_interval(config(), 10.0, 4.0)
        shares = {r.time_running / r.time_enabled for r in readings.values()}
        assert shares == {1.0, GENERIC_SHARE}
        assert GENERIC_SHARE == pytest.approx(2 / 55)

    def test_fixed_events_not_multiplexed(self):
        readings = Pmu().read_interval(config(), 10.0, 4.0)
        for event in FIXED_COUNTER_EVENTS:
            assert not is_multiplexed(readings[event])
            assert readings[event].time_running == readings[event].time_enabled

    def test_generic_events_multiplexed(self):
        readings = Pmu().read_interval(config(), 10.0, 4.0)
        multiplexed = [r for r in readings.values() if is_multiplexed(r)]
        assert len(multiplexed) == 55

    def test_rescaling_formula(self):
        reading = CounterReading(
            event="x", raw_count=100.0, time_enabled=10.0, time_running=2.0
        )
        assert final_count(reading) == pytest.approx(100.0 * 10.0 / 2.0)

    def test_zero_running_time_gives_zero(self):
        reading = CounterReading("x", 50.0, 10.0, 0.0)
        assert final_count(reading) == 0.0

    def test_final_counts_approximate_truth(self):
        c = config()
        truth = true_counts(c, 10.0, 4.0, epoch=1, noisy=False)
        final = Pmu().final_counts(c, 10.0, 4.0, epoch=1, noisy=False)
        np.testing.assert_allclose(final, truth, rtol=1e-9)

    def test_final_counts_with_noise_close_to_truth(self):
        c = config()
        truth = true_counts(c, 10.0, 4.0, epoch=1, noisy=True)
        final = Pmu().final_counts(c, 10.0, 4.0, epoch=1, noisy=True)
        np.testing.assert_allclose(final, truth, rtol=0.15)

    @given(
        raw=st.floats(min_value=0.0, max_value=1e12),
        enabled=st.floats(min_value=0.001, max_value=1e6),
        share=st.floats(min_value=0.001, max_value=1.0),
    )
    # (raw * enabled) / running rounds one ulp under raw here.
    @example(raw=919658114757.25, enabled=329058.75, share=1.0)
    @settings(max_examples=100, deadline=None)
    def test_rescaling_never_underestimates_observed(self, raw, enabled, share):
        """final = raw * enabled/running >= raw when running <= enabled."""
        reading = CounterReading("x", raw, enabled, enabled * share)
        assert final_count(reading) >= raw - 1e-9


class TestProfiler:
    def test_profile_shape_and_positive_rates(self):
        profile = EpochProfiler().profile_epoch(config(), 1, 50.0, 4.0)
        assert profile.avg_events_per_s.shape == (58,)
        assert (profile.avg_events_per_s >= 0).all()

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            EpochProfiler().profile_epoch(config(), 1, 0.0, 4.0)

    def test_events_per_epoch_consistent(self):
        profile = EpochProfiler().profile_epoch(config(), 1, 50.0, 4.0)
        np.testing.assert_allclose(
            profile.events_per_epoch(), profile.avg_events_per_s * 50.0
        )

    def test_feature_vector_normalised_against_instructions(self):
        profile = EpochProfiler().profile_epoch(config(), 1, 50.0, 4.0)
        features = profile.feature_vector()
        assert features[event_index("instructions")] == pytest.approx(0.0)

    def test_feature_vector_core_invariance(self):
        """The clustering features must not depend on busy cores."""
        profiler = EpochProfiler()
        few = profiler.profile_epoch(config(cores=4), 1, 50.0, 4.0, noisy=False)
        many = profiler.profile_epoch(config(cores=16), 1, 25.0, 16.0, noisy=False)
        np.testing.assert_allclose(
            few.feature_vector(), many.feature_vector(), atol=0.05
        )

    def test_unnormalised_features_depend_on_cores(self):
        profiler = EpochProfiler()
        few = profiler.profile_epoch(config(cores=4), 1, 50.0, 4.0, noisy=False)
        many = profiler.profile_epoch(config(cores=16), 1, 25.0, 16.0, noisy=False)
        assert (
            np.abs(
                few.feature_vector(normalise=False)
                - many.feature_vector(normalise=False)
            ).max()
            > 0.1
        )

    def test_profiles_repeat_across_epochs(self):
        """The Fig 2 claim: per-epoch profiles are nearly identical."""
        profiler = EpochProfiler()
        c = config(CNN_NEWS20)
        p1 = profiler.profile_epoch(c, 1, 100.0, 6.0)
        p2 = profiler.profile_epoch(c, 2, 100.0, 6.0)
        ratio = p1.avg_events_per_s / p2.avg_events_per_s
        assert np.abs(np.log10(ratio)).max() < 0.1

    def test_profiles_distinguish_workloads(self):
        profiler = EpochProfiler()
        a = profiler.profile_epoch(config(LENET_MNIST), 1, 50.0, 4.0)
        b = profiler.profile_epoch(config(CNN_NEWS20), 1, 50.0, 4.0)
        assert np.linalg.norm(a.feature_vector() - b.feature_vector()) > 0.5

    def test_average_profiles(self):
        profiler = EpochProfiler()
        profiles = [
            profiler.profile_epoch(config(), e, 50.0, 4.0) for e in (1, 2, 3)
        ]
        avg = average_profiles(profiles)
        assert avg.shape == (58,)
        with pytest.raises(ValueError):
            average_profiles([])

    def test_wrong_vector_size_rejected(self):
        with pytest.raises(ValueError):
            EpochProfile(
                workload="x", epoch=1, duration_s=10.0,
                avg_events_per_s=np.zeros(10), samples=10,
            )

    def test_overhead_factor_small(self):
        factor = EpochProfiler().overhead_factor()
        assert 1.0 < factor < 1.1


class TestVectorizedFastPath:
    """The vector kernel must reproduce the per-event reading path."""

    def test_final_counts_matches_read_interval(self):
        c = config()
        pmu = Pmu()
        fast = pmu.final_counts(c, 10.0, 4.0, epoch=3, noisy=True)
        readings = pmu.read_interval(c, 10.0, 4.0, epoch=3, noisy=True)
        from_readings = np.array([final_count(readings[e]) for e in EVENT_NAMES])
        np.testing.assert_array_equal(fast, from_readings)

    def test_final_counts_matches_read_interval_noise_free(self):
        c = config()
        pmu = Pmu()
        fast = pmu.final_counts(c, 10.0, 4.0, epoch=3, noisy=False)
        readings = pmu.read_interval(c, 10.0, 4.0, epoch=3, noisy=False)
        from_readings = np.array([final_count(readings[e]) for e in EVENT_NAMES])
        np.testing.assert_array_equal(fast, from_readings)

    def test_final_counts_zero_duration_is_all_zero(self):
        fast = Pmu().final_counts(config(), 0.0, 4.0, epoch=1)
        np.testing.assert_array_equal(fast, np.zeros(NUM_EVENTS))

    def test_signature_cache_returns_frozen_array(self):
        a = workload_signature(LENET_MNIST)
        assert a is workload_signature(LENET_MNIST)
        with pytest.raises(ValueError):
            a[0] = 1.0

    def test_modifier_vector_matches_scalar_modifier(self):
        from repro.counters.events import MISSY_MASK
        from repro.counters.pmu import _modifier_vector
        from repro.workloads.perfmodel import memory_penalty

        starved = config(batch=1024, memory=4.0)
        penalty = memory_penalty(starved.workload, starved.hyper, starved.system)
        missy = penalty**1.5 * (32.0 / max(32, starved.hyper.batch_size)) ** 0.1
        scalars = np.array(
            [missy if MISSY_MASK[event_index(e)] else 1.0 for e in EVENT_NAMES]
        )
        np.testing.assert_array_equal(_modifier_vector(starved), scalars)


def _reference_final_counts(pmu, c, duration_s, busy_cores, row, noisy):
    """The one-interval PMU read as a 58-vector kernel, written out
    independently of the batched one: the same IEEE operations in the
    same order, reading one noise row at a time."""
    from repro.counters.pmu import _modifier_vector
    from repro.workloads.noise import noise_matrix

    truth = workload_signature(c.workload) * (duration_s * max(0.0, busy_cores))
    truth = truth * _modifier_vector(c)
    if noisy:
        noise = noise_matrix(
            0.03, NUM_EVENTS, c.workload.name, "pmu-noise", c.hyper, c.system
        )
        truth *= np.exp(noise.rows(row, 1)[0])
    share = GENERIC_SHARE
    generic = np.array(
        [i for i, e in enumerate(EVENT_NAMES) if e not in FIXED_COUNTER_EVENTS]
    )
    raw = truth.copy()
    raw[generic] = truth[generic] * share
    if noisy:
        blind = noise_matrix(
            0.02 * (1.0 - share),
            len(generic),
            "pmu-mux",
            pmu._seed,
            c.workload.name,
            c.hyper,
            c.system,
        ).rows(row, 1)[0]
        raw[generic] = raw[generic] * np.maximum(0.0, 1.0 + blind)
    running = np.full(NUM_EVENTS, duration_s)
    running[generic] = duration_s * share
    observed = running > 0.0
    final = raw * (duration_s / np.where(observed, running, 1.0))
    final[~observed] = 0.0
    return final


def _reference_profile(pmu, c, epoch, duration_s, busy_cores, noisy):
    """The per-stratum loop profile_epoch replaced: one read per
    stratum, summed in stratum order, averaged over the epoch."""
    from repro.counters.profiler import MAX_STRATA

    strata = min(max(1, math.ceil(duration_s)), MAX_STRATA)
    total = np.zeros(NUM_EVENTS)
    remaining = duration_s
    for s in range(strata):
        span = remaining / (strata - s)
        remaining -= span
        total += _reference_final_counts(
            pmu, c, span, busy_cores, epoch * MAX_STRATA + s, noisy
        )
    return total / duration_s, strata


class TestBatchedKernelBitIdentity:
    """One batched PMU read per profiled epoch must give exactly the
    numbers of one read per stratum (assert_array_equal, not approx)."""

    @pytest.mark.parametrize("workload", [LENET_MNIST, CNN_NEWS20])
    @pytest.mark.parametrize("duration_s", [0.4, 2.5, 7.5, 60.0])
    @pytest.mark.parametrize("noisy", [True, False])
    @pytest.mark.parametrize("epoch", [0, 5])
    @pytest.mark.parametrize("busy", [6.0, 0.0])
    def test_profile_epoch_matches_per_stratum_loop(
        self, workload, duration_s, noisy, epoch, busy
    ):
        c = config(workload)
        pmu = Pmu()
        expected, strata = _reference_profile(pmu, c, epoch, duration_s, busy, noisy)
        profile = EpochProfiler(pmu).profile_epoch(c, epoch, duration_s, busy, noisy)
        np.testing.assert_array_equal(profile.avg_events_per_s, expected)
        assert profile.samples == math.ceil(duration_s)
        assert strata == {0.4: 1, 2.5: 3}.get(duration_s, 8)

    @pytest.mark.parametrize("noisy", [True, False])
    def test_final_counts_matches_reference(self, noisy):
        c = config(CNN_NEWS20, batch=256, memory=4.0)
        pmu = Pmu(seed=3)
        # 0.0 and the smallest subnormal leave the multiplexed events
        # unobserved (running rounds to 0.0): they must read 0.
        for row, duration_s in ((0, 0.4), (7, 2.5), (41, 60.0), (3, 0.0), (5, 5e-324)):
            np.testing.assert_array_equal(
                pmu.final_counts(c, duration_s, 4.0, epoch=row, noisy=noisy),
                _reference_final_counts(pmu, c, duration_s, 4.0, row, noisy),
            )

    def test_batch_rows_match_single_reads(self):
        c = config(LENET_FASHION)
        pmu = Pmu()
        spans = [0.5, 1.25, 3.0]
        rows = pmu.final_counts_batch(c, spans, 6.0, first_row=16)
        for k, span in enumerate(spans):
            np.testing.assert_array_equal(
                rows[k], pmu.final_counts(c, span, 6.0, epoch=16 + k)
            )

    @pytest.mark.parametrize("spans", [[], [1.0, -0.5], [[1.0]]])
    def test_bad_spans_rejected(self, spans):
        with pytest.raises(ValueError):
            Pmu().final_counts_batch(config(), spans, 4.0)
