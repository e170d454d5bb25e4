"""The draw-ahead noise layer's exactness contract.

The batched blocks are only allowed to exist because numpy Generators
fill batched draws sequentially — ``normal(size=n)`` is bit-identical
to ``n`` scalar calls on the same stream, and a later draw on the same
generator extends the identical sequence. These tests hold numpy to
both properties across the key domain (hypothesis), then hold the
repro models to the equivalences built on them: scalar ``epoch_cost``
vs ``epoch_cost_batch``, scalar ``accuracy_at_epoch`` vs
``accuracy_curve``, matrix rows vs sequential vector draws, and the
construction-count bound the whole layer exists to enforce, the window
and stream memos' keys, bounds and read-only windows, and finally that
threads reading one block or matrix all read the keyed stream while
they race its construction and growth.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhibits import render
from repro.experiments import golden
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.trainer import TrialHooks, run_trial
from repro.workloads import (
    HyperParams,
    SystemParams,
    TrialConfig,
    accuracy_at_epoch,
    accuracy_curve,
    clear_cost_caches,
    epoch_cost,
    epoch_cost_batch,
    get_workload,
    philox_construction_count,
    rng_for,
)
from repro.workloads.noise import (
    NoiseBlock,
    NoiseMatrix,
    _stream,
    _window,
    clear_noise_blocks,
    noise_block,
    noise_matrix,
)


def row(matrix, index):
    """The ``index``-th vector draw of ``matrix`` (0-based)."""
    return matrix.rows(index, 1)[0]


KEYS = st.lists(
    st.one_of(st.text(max_size=8), st.integers(-(2**31), 2**31)),
    min_size=1,
    max_size=4,
)


class TestNumpySequentialFill:
    """The numpy properties the blocks stand on, over the key domain."""

    @given(parts=KEYS, n=st.integers(1, 64), sigma=st.floats(0.001, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_batched_normal_bit_matches_sequential(self, parts, n, sigma):
        batched = rng_for(*parts).normal(0.0, sigma, size=n)
        reference = rng_for(*parts)
        sequential = np.array([reference.normal(0.0, sigma) for _ in range(n)])
        assert (batched == sequential).all()

    @given(parts=KEYS, first=st.integers(1, 32), second=st.integers(1, 32))
    @settings(max_examples=100, deadline=None)
    def test_extension_continues_the_stream(self, parts, first, second):
        whole = rng_for(*parts).normal(0.0, 1.0, size=first + second)
        grown = rng_for(*parts)
        a = grown.normal(0.0, 1.0, size=first)
        b = grown.normal(0.0, 1.0, size=second)
        assert (np.concatenate((a, b)) == whole).all()

    @given(parts=KEYS, rows=st.integers(1, 8), width=st.integers(1, 16))
    @settings(max_examples=100, deadline=None)
    def test_matrix_fill_is_row_major_sequential(self, parts, rows, width):
        matrix = rng_for(*parts).normal(0.0, 1.0, size=(rows, width))
        flat = rng_for(*parts).normal(0.0, 1.0, size=rows * width)
        assert (matrix.reshape(-1) == flat).all()


class TestNoiseBlock:
    def test_value_matches_sequential_draws_however_grown(self):
        sigma = 0.07
        reference = rng_for("wl", "epoch-noise", "block").normal(0.0, sigma, size=100)
        block = NoiseBlock(sigma, ("wl", "epoch-noise"))
        # Access out of order, forcing several growth steps.
        for index in (0, 40, 3, 99, 7):
            assert block.value(index) == reference[index]

    def test_prefix_matches_values(self):
        block = noise_block(0.1, "prefix-test")
        # 40 draws pass the 32-draw first fill.
        prefix = block.prefix(40)
        assert all(type(draw) is float for draw in prefix)
        assert prefix == [block.value(i) for i in range(40)]
        assert block.prefix(0) == []

    def test_window_matches_prefix(self):
        block = noise_block(0.1, "window-test")
        prefix = block.prefix(1002)
        for start, stop in ((0, 0), (0, 5), (3, 40), (1000, 1002), (7, 7)):
            window = block.window(start, stop)
            assert all(type(draw) is float for draw in window)
            assert window == prefix[start:stop]
        # A fresh block reaching past its first fill agrees too.
        assert noise_block(0.1, "window-fresh").window(1000, 1002) == (
            noise_block(0.1, "window-fresh").prefix(1002)[1000:]
        )

    def test_negative_index_rejected(self):
        block = noise_block(0.1, "negative-test")
        with pytest.raises(ValueError):
            block.value(-1)
        with pytest.raises(ValueError):
            block.prefix(-1)
        with pytest.raises(ValueError):
            block.window(-1, 2)
        with pytest.raises(ValueError):
            block.window(3, 2)

    @pytest.mark.parametrize(
        "make, first, second",
        [
            # A hit across scales would serve wrongly-scaled draws.
            pytest.param(
                noise_block, (0.1, "memo-test"), (0.2, "memo-test"), id="sigma"
            ),
            # The row width is part of the draw shape.
            pytest.param(
                noise_matrix, (0.03, 3, "memo-test"), (0.03, 5, "memo-test"), id="width"
            ),
            # 1 == 1.0 and both hash alike, but their streams differ: a
            # memo keyed on ==/hash would serve the first stream twice.
            pytest.param(noise_block, (0.1, 1), (0.1, 1.0), id="repr"),
        ],
    )
    def test_memo_key_identity(self, make, first, second):
        clear_noise_blocks()

        def read(handle):
            if make is noise_matrix:
                return handle.rows(0, 2)
            return handle.window(0, 2)

        a = read(make(*first))
        built = philox_construction_count()
        hits = _window.cache_info().hits
        # A fresh handle on the same key hits the window memo and
        # builds no stream.
        np.testing.assert_array_equal(read(make(*first)), a)
        assert _window.cache_info().hits == hits + 1
        assert philox_construction_count() == built
        # The other key is its own stream, with different draws.
        b = read(make(*second))
        assert philox_construction_count() == built + 1
        assert not np.array_equal(a, b)

    def test_eviction_replays_identical_values(self):
        clear_noise_blocks()
        a = noise_block(0.1, "evict-a")
        b = noise_block(0.1, "evict-b")
        kept, before = a.prefix(10), b.prefix(10)
        fill = noise_block(0.1, "evict-fill")
        # More fresh windows than the memo holds; A's window is re-read
        # often enough to stay among the most recently used.
        for index in range(_window.cache_info().maxsize + 100):
            fill.value(index)
            if index % 1000 == 0:
                hits = _window.cache_info().hits
                assert a.prefix(10) == kept
                assert _window.cache_info().hits == hits + 1
        assert _window.cache_info().currsize == _window.cache_info().maxsize
        misses = _window.cache_info().misses
        assert b.prefix(10) == before
        assert _window.cache_info().misses == misses + 1
        clear_noise_blocks()
        assert b.prefix(10) == before

    def test_stream_eviction_replays_identical_values(self):
        clear_noise_blocks()
        b = noise_block(0.1, "evict-stream-b")
        before = b.prefix(10)
        # More fresh streams than the stream memo holds evicts B's.
        for index in range(_stream.cache_info().maxsize + 1):
            noise_block(0.1, "evict-stream-fill", index).value(0)
        built = philox_construction_count()
        # A memoized window still hits; a new one rebuilds the stream.
        assert b.prefix(10) == before
        assert philox_construction_count() == built
        assert b.window(2, 9) == before[2:9]
        assert philox_construction_count() == built + 1

    def test_reads_cannot_write_into_memoized_windows(self):
        clear_noise_blocks()
        block = noise_block(0.1, "write-test")
        matrix = noise_matrix(0.03, 4, "write-test")
        reads = (block.prefix(6), block.window(2, 6), matrix.rows(0, 3), row(matrix, 1))
        expected = [np.array(read, copy=True) for read in reads]
        value = block.value(3)
        assert type(value) is float
        for read in reads:
            read[0] = 99.0
        assert row(matrix, 1).flags.writeable and matrix.rows(0, 3).flags.writeable
        again = (block.prefix(6), block.window(2, 6), matrix.rows(0, 3), row(matrix, 1))
        for read, want in zip(again, expected):
            np.testing.assert_array_equal(read, want)
        assert block.value(3) == value == expected[0][3]
        memoized = _window(0.03, (4,), matrix._reprs, 0, 3)
        assert not memoized.flags.writeable
        assert memoized.base is None  # a copy: it pins no stream prefix
        with pytest.raises(ValueError):
            memoized[0, 0] = 0.0

    def test_second_exhibit_render_draws_nothing(self):
        clear_noise_blocks()
        render("fig09")
        streams, windows = _stream.cache_info(), _window.cache_info()
        text = render("fig09")
        # Every read hits a window: no stream is fetched, let alone drawn.
        assert _stream.cache_info() == streams
        assert _window.cache_info().misses == windows.misses
        assert _window.cache_info().hits > windows.hits
        with open(
            golden.committed_path("fig09"), "r", encoding="utf-8", newline=""
        ) as handle:
            assert text == handle.read()


class TestNoiseMatrix:
    def test_row_matches_sequential_vector_draws(self):
        sigma, width = 0.03, 58
        reference = rng_for("m", "pmu", "block").normal(0.0, sigma, size=(12, width))
        matrix = NoiseMatrix(sigma, width, ("m", "pmu"))
        for index in (0, 9, 2, 11):
            assert (row(matrix, index) == reference[index]).all()

    def test_rows_are_copies(self):
        matrix = noise_matrix(0.03, 4, "copy-test")
        first = row(matrix, 1)
        first[:] = 0.0
        assert (row(matrix, 1) != 0.0).any()

    def test_rows_match_single_row_reads(self):
        matrix = noise_matrix(0.03, 58, "rows-test")
        for start, count in ((0, 1), (0, 8), (3, 5), (40, 8)):
            np.testing.assert_array_equal(
                matrix.rows(start, count),
                np.stack([row(matrix, i) for i in range(start, start + count)]),
            )

    def test_rows_returns_a_copy(self):
        matrix = noise_matrix(0.03, 4, "rows-copy-test")
        before = matrix.rows(2, 3)
        block = matrix.rows(2, 3)
        block[:] = 0.0
        np.testing.assert_array_equal(matrix.rows(2, 3), before)

    @pytest.mark.parametrize("start, count", [(-1, 2), (0, 0), (4, -1)])
    def test_rows_rejects_bad_range(self, start, count):
        with pytest.raises(ValueError):
            noise_matrix(0.03, 4, "rows-range-test").rows(start, count)


class TestConcurrentGrowth:
    """The service runs serial jobs on several threads, so one memoized
    stream can be built and grown under concurrent readers. Every read
    must still be the keyed stream: a growth step that shares a
    generator or edits the memoized array in place hands some reader
    values from the wrong stream positions (or an IndexError on a
    half-grown array)."""

    THREADS = 4
    ROUNDS = 60
    LENGTHS = (40, 150, 600, 2000, 5000)
    ROWS = (8, 30, 120, 400)
    WIDTH = 9
    SIGMA = 0.05

    def test_concurrent_readers_see_the_stream(self):
        errors, wrong = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(self.ROUNDS):
                self._round(("race", round_index), errors, wrong)
        finally:
            sys.setswitchinterval(interval)
            clear_noise_blocks()
        assert not errors, errors[:3]
        assert not wrong, f"{len(wrong)} wrong reads, first: {wrong[:3]}"

    def _round(self, key, errors, wrong):
        expected = rng_for(*key, "block").normal(0.0, self.SIGMA, size=self.LENGTHS[-1])
        expected_rows = rng_for(*key, "block").normal(
            0.0, self.SIGMA, size=(self.ROWS[-1], self.WIDTH)
        )
        barrier = threading.Barrier(self.THREADS, timeout=30)

        def reader():
            try:
                barrier.wait()
                for length, rows in zip(self.LENGTHS, self.ROWS + (None,)):
                    # Each read is a new window, so the reads race the
                    # stream's construction and growth.
                    block = noise_block(self.SIGMA, *key)
                    matrix = noise_matrix(self.SIGMA, self.WIDTH, *key)
                    if block.prefix(length) != expected[:length].tolist():
                        wrong.append(("prefix", key, length))
                    if block.value(length - 1) != expected[length - 1]:
                        wrong.append(("value", key, length))
                    if rows is None:
                        continue
                    if (row(matrix, rows - 1) != expected_rows[rows - 1]).any():
                        wrong.append(("row", key, rows))
            except Exception as error:
                errors.append(repr(error))

        threads = [threading.Thread(target=reader) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)


class TestModelEquivalence:
    """The scalar and batched model forms are the same numbers."""

    def configs(self):
        for name in ("lenet-mnist", "cnn-news20"):
            workload = get_workload(name)
            yield TrialConfig(
                workload=workload,
                hyper=HyperParams(batch_size=128, epochs=12),
                system=SystemParams(cores=8, memory_gb=16.0),
            )

    def test_epoch_cost_batch_bit_matches_scalar(self):
        for config in self.configs():
            for contention in (1.0, 1.7):
                batch = epoch_cost_batch(
                    config, range(12), contention=contention
                )
                for epoch in range(12):
                    scalar = epoch_cost(config, epoch=epoch, contention=contention)
                    assert batch.total_s[epoch] == scalar.total_s
                    assert batch.compute_s == scalar.compute_s
                    assert batch.sync_s == scalar.sync_s
                    assert batch.mem_penalty == scalar.mem_penalty
                    assert batch.utilisation == scalar.utilisation

    def test_epoch_cost_batch_noise_free(self):
        for config in self.configs():
            batch = epoch_cost_batch(config, range(5), noisy=False)
            for epoch in range(5):
                assert batch.total_s[epoch] == epoch_cost(
                    config, epoch=epoch, noisy=False
                ).total_s

    def test_epoch_cost_batch_arbitrary_indices(self):
        # A trial's cost segment starts mid-trial after a reshape;
        # pipetune probes use sparse thousand-range indices. Both must
        # match the scalars.
        config = next(self.configs())
        indices = [7, 3, 1003, 0]
        batch = epoch_cost_batch(config, indices)
        for position, epoch in enumerate(indices):
            assert batch.total_s[position] == epoch_cost(config, epoch=epoch).total_s
        with pytest.raises(ValueError):
            epoch_cost_batch(config, [3, -1])

    def test_accuracy_curve_bit_matches_scalar(self):
        for config in self.configs():
            workload, hyper = config.workload, config.hyper
            for trial_seed in (0, 12345):
                for noisy in (True, False):
                    curve = accuracy_curve(
                        workload, hyper, 12, trial_seed=trial_seed, noisy=noisy
                    )
                    for epoch in range(1, 13):
                        assert curve[epoch - 1] == accuracy_at_epoch(
                            workload, hyper, epoch, trial_seed=trial_seed, noisy=noisy
                        )

    def test_accuracy_curve_resumed_bit_matches_scalar(self):
        # A resumed trial's curve starts after its checkpoint epoch.
        config = next(self.configs())
        workload, hyper = config.workload, config.hyper
        curve = accuracy_curve(workload, hyper, 40, trial_seed=7, start_epoch=3)
        assert curve == [
            accuracy_at_epoch(workload, hyper, epoch, trial_seed=7)
            for epoch in range(4, 41)
        ]
        assert accuracy_curve(workload, hyper, 5, start_epoch=5) == []
        with pytest.raises(ValueError):
            accuracy_curve(workload, hyper, 5, start_epoch=6)

    def test_scalar_then_batch_then_scalar_consistent(self):
        # Mixed access orders (scalar reads before and after a batched
        # segment) all read the same stream positions.
        config = next(self.configs())
        clear_cost_caches()
        early = epoch_cost(config, epoch=2).total_s
        batch = epoch_cost_batch(config, range(40))
        assert batch.total_s[2] == early
        assert epoch_cost(config, epoch=33).total_s == batch.total_s[33]

    def test_construction_count_bounded(self):
        # The point of the layer: a full noisy trial costs O(1) stream
        # constructions, not O(epochs).
        config = next(self.configs())
        clear_cost_caches()
        before = philox_construction_count()
        epoch_cost_batch(config, range(200))
        accuracy_curve(config.workload, config.hyper, 200)
        for epoch in range(200):
            epoch_cost(config, epoch=epoch)
        built = philox_construction_count() - before
        assert built <= 4

    def test_resized_trial_builds_one_stream_per_block(self):
        # A trial reads each of its blocks once, to its epoch budget:
        # one acc-noise block, and one epoch-noise block per
        # system-config segment. Reading the acc block epoch by epoch
        # would regrow it past its 32-draw first fill.
        class ResizeAt20(TrialHooks):
            def before_epoch(self, ctx, epoch):
                if epoch == 20:
                    return SystemParams(cores=12, memory_gb=24.0)
                return None

        env = Environment()
        cluster = SimCluster(env, [NodeSpec(name="n0", cores=16, memory_gb=64.0)])
        process = env.process(
            run_trial(
                env,
                cluster,
                trial_id="t0",
                workload=get_workload("lenet-mnist"),
                hyper=HyperParams(batch_size=64, epochs=40),
                system=SystemParams(cores=8, memory_gb=16.0),
                start_epoch=3,
                hooks=ResizeAt20(),
            )
        )
        clear_cost_caches()
        before = philox_construction_count()
        env.run()
        assert {r.system.cores for r in process.value.records} == {8, 12}
        assert philox_construction_count() - before == 3
