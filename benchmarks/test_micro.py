"""Microbenchmarks of the substrates (multi-round, real timings).

These exercise the hot paths of the reproduction itself — DES event
throughput, PMU reads, k-means fits, TSDB writes/queries — so
regressions in the simulator show up as benchmark regressions.
"""

import numpy as np
import pytest

from repro.core.clustering import KMeans
from repro.counters.pmu import Pmu
from repro.scenarios import (
    Scenario,
    ScenarioRunner,
    get_definition,
    get_sweep,
    pipetune,
    run_sweep,
    tune_v1,
    tune_v2,
)
from repro.counters.profiler import EpochProfiler
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tsdb.point import Point
from repro.tsdb.store import TimeSeriesStore
from repro.tune.trainer import run_trial
from repro.workloads.perfmodel import clear_cost_caches, epoch_cost_batch, epoch_time
from repro.workloads.registry import LENET_MNIST
from repro.workloads.spec import (
    HyperParams,
    SystemParams,
    TrialConfig,
    rng_for,
    stable_seed,
)


def test_des_event_throughput(benchmark):
    """Schedule and drain 10k timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        return env.now

    now = benchmark(run)
    assert now == 10_000.0


def test_des_parallel_processes(benchmark):
    """1k concurrent processes joined with AllOf."""

    def run():
        env = Environment()

        def worker(i):
            yield env.timeout(float(i % 7) + 1.0)
            return i

        def root():
            procs = [env.process(worker(i)) for i in range(1_000)]
            result = yield env.all_of(procs)
            return len(result)

        p = env.process(root())
        env.run()
        return p.value

    assert benchmark(run) == 1_000


def test_pmu_read_interval(benchmark):
    config = TrialConfig(
        LENET_MNIST, HyperParams(batch_size=64), SystemParams(cores=8, memory_gb=16.0)
    )
    pmu = Pmu()
    readings = benchmark(lambda: pmu.read_interval(config, 60.0, 6.0, epoch=1))
    assert len(readings) == 58


def test_pmu_final_counts(benchmark):
    config = TrialConfig(
        LENET_MNIST, HyperParams(batch_size=64), SystemParams(cores=8, memory_gb=16.0)
    )
    pmu = Pmu()
    final = benchmark(lambda: pmu.final_counts(config, 60.0, 6.0, epoch=1))
    assert final.shape == (58,)


def test_profiler_epoch(benchmark):
    config = TrialConfig(
        LENET_MNIST, HyperParams(batch_size=64), SystemParams(cores=8, memory_gb=16.0)
    )
    profiler = EpochProfiler()
    profile = benchmark(lambda: profiler.profile_epoch(config, 1, 60.0, 6.0))
    assert profile.avg_events_per_s.shape == (58,)


def test_epoch_time_model(benchmark):
    config = TrialConfig(
        LENET_MNIST, HyperParams(batch_size=64), SystemParams(cores=8, memory_gb=16.0)
    )
    value = benchmark(lambda: epoch_time(config, epoch=1))
    assert value > 0


@pytest.mark.parametrize(
    "constructor",
    [
        pytest.param(
            lambda i: np.random.default_rng(stable_seed("bench-rng", i)),
            id="legacy_pcg64",
        ),
        pytest.param(lambda i: rng_for("bench-rng", i), id="philox"),
    ],
)
def test_rng_construction(benchmark, constructor):
    """Per-stream derivation cost: legacy SeedSequence->PCG64 spin-up
    vs the keyed Philox adapter (one fresh core per call, no shared
    state). 200 fresh streams with one draw each — the shape of the
    simulator's hot path, where construction (not drawing) dominates."""

    def run():
        total = 0.0
        for i in range(200):
            total += constructor(i).random()
        return total

    total = benchmark(run)
    assert 0.0 < total < 200.0


def test_epoch_noise_block(benchmark):
    """Cold-path cost of the draw-ahead layer: a fresh noise block plus
    one batched 30-epoch cost synthesis per round. ``clear_cost_caches``
    runs inside the timed region, so the measurement is construction +
    the batched draw and its prefix read — the work a trial's first
    segment pays — rather than a cache-hit no-op."""
    config = TrialConfig(
        LENET_MNIST, HyperParams(batch_size=64), SystemParams(cores=8, memory_gb=16.0)
    )

    def run():
        clear_cost_caches()
        return sum(epoch_cost_batch(config, range(30)).total_s)

    assert benchmark(run) > 0


def test_trainer_batched_runout(benchmark):
    """A full 30-epoch trial from cold caches every round: the
    trial-level cost of the batched draw-ahead path (one stream per
    kind, one ``epoch_cost_batch`` per system-config segment), as
    opposed to ``test_trainer_runout``'s steady-state warm run."""

    def run():
        clear_cost_caches()
        env = Environment()
        cluster = SimCluster(env, [NodeSpec(name="n0", cores=16, memory_gb=64.0)])
        process = env.process(
            run_trial(
                env=env,
                cluster=cluster,
                trial_id="bench-batched-runout",
                workload=LENET_MNIST,
                hyper=HyperParams(batch_size=64, epochs=30),
                system=SystemParams(cores=8, memory_gb=16.0),
            )
        )
        env.run()
        return process.value.epochs_run

    assert benchmark(run) == 30


def test_kmeans_fit(benchmark):
    rng = np.random.default_rng(0)
    data = np.vstack(
        [rng.normal(0, 1, (100, 58)), rng.normal(6, 1, (100, 58))]
    )
    model = benchmark(lambda: KMeans(k=2, seed=0).fit(data))
    assert model.inertia > 0


def test_tsdb_write_throughput(benchmark):
    def run():
        store = TimeSeriesStore()
        for t in range(2_000):
            store.write(
                Point(
                    measurement="power",
                    time=float(t),
                    tags={"node": f"n{t % 4}"},
                    fields={"watts": 60.0 + t % 50},
                )
            )
        return len(store)

    assert benchmark(run) == 2_000


def test_trainer_runout(benchmark):
    """A full 30-epoch trial with the default hooks: exercises
    allocation, the per-epoch loop and result synthesis end to end."""

    def run():
        env = Environment()
        cluster = SimCluster(env, [NodeSpec(name="n0", cores=16, memory_gb=64.0)])
        process = env.process(
            run_trial(
                env=env,
                cluster=cluster,
                trial_id="bench-runout",
                workload=LENET_MNIST,
                hyper=HyperParams(batch_size=64, epochs=30),
                system=SystemParams(cores=8, memory_gb=16.0),
            )
        )
        env.run()
        return process.value.epochs_run

    assert benchmark(run) == 30


def test_tsdb_window_aggregation(benchmark):
    """Mixed-aggregator windowing over a 20k-point column (columnar path)."""
    store = TimeSeriesStore()
    for t in range(20_000):
        store.write(
            Point(
                measurement="m",
                time=float(t),
                fields={"v": float((t * 37) % 101)},
            )
        )

    def run():
        means = store.aggregate_windows("m", "v", window_s=30.0, agg="mean")
        maxes = store.aggregate_windows("m", "v", window_s=45.0, agg="max")
        sums = store.aggregate_windows("m", "v", window_s=120.0, agg="sum")
        return len(means) + len(maxes) + len(sums)

    assert benchmark(run) == 667 + 445 + 167


def test_tsdb_tagged_window(benchmark):
    """Per-node (tagged) windowing over a 20k-point measurement: the
    ROADMAP per-node power query pattern, served from tagged
    sub-columns instead of a Python point scan."""
    store = TimeSeriesStore()
    for t in range(20_000):
        store.write(
            Point(
                measurement="power",
                time=float(t),
                tags={"node": f"n{t % 4}"},
                fields={"watts": 60.0 + (t * 37) % 101},
            )
        )

    def run():
        total = 0
        for node in ("n0", "n1", "n2", "n3"):
            total += len(
                store.aggregate_windows(
                    "power", "watts", window_s=30.0, agg="mean", tags={"node": node}
                )
            )
        return total

    assert benchmark(run) == 4 * 667


def test_tsdb_window_query(benchmark):
    store = TimeSeriesStore()
    for t in range(5_000):
        store.write(
            Point(measurement="power", time=float(t), fields={"watts": float(t % 97)})
        )

    buckets = benchmark(
        lambda: store.aggregate_windows("power", "watts", window_s=60.0)
    )
    assert len(buckets) == 84


# ---------------------------------------------------------------------------
# Parallel execution backends
# ---------------------------------------------------------------------------

#: a deliberately multi-chain scenario: two heavy PipeTune session
#: chains (warm-started ground-truth databases) plus eight independent
#: V1/V2 job chains over the Type-II workloads — enough concurrent
#: work that a process pool pays off on a multi-core runner.
_PARALLEL_SCENARIO = (
    Scenario.builder("micro-parallel-chains")
    .workloads("cnn-news20", "lstm-news20")
    .algorithm("hyperband", max_epochs=9, eta=3)
    .compare(
        tune_v1(sample_scale=6.0),
        tune_v2(sample_scale=6.0),
        pipetune(label="pipetune-a", sample_scale=6.0),
        pipetune(label="pipetune-b", sample_scale=6.0),
    )
    .repetitions(2)
    .build()
)


@pytest.mark.parametrize("workers", [1, 4], ids=["serial", "pool4"])
def test_scenario_parallel_speedup(benchmark, workers):
    """Serial vs pooled wall-clock of one multi-chain scenario run.

    Records both sides of the speedup claim: the ``pool4`` variant
    fans the plan's 10 execution chains over a 4-worker process pool
    while ``serial`` runs them in plan order. Results are asserted
    identical in shape; the bytes-level identity is covered by
    tests/test_scenarios_parallel.py. On a single-core runner the
    pooled variant pays fork overhead and loses — the benchmark is
    the measurement, not a gate on the ordering.
    """
    runner = ScenarioRunner(_PARALLEL_SCENARIO)
    result = benchmark.pedantic(
        lambda: runner.run(scale=1.0, seed=0, workers=workers),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["chains"] = len(runner.plan(scale=1.0, seed=0).chains())
    assert [row["system"] for row in result.rows] == [
        "tune-v1",
        "tune-v2",
        "pipetune-a",
        "pipetune-b",
    ] * 2


# ---------------------------------------------------------------------------
# Hostile world (fault injection)
# ---------------------------------------------------------------------------


def test_hostile_world(benchmark):
    """One full hostile-world scenario run (churn + crashes + retry):
    per-epoch fault draws on the trial hot path plus the recovery
    bookkeeping in the job runner. Gates the overhead of the
    fault-injection seam against the committed baseline."""
    runner = get_definition("churn-and-crashes")
    result = benchmark.pedantic(
        lambda: runner.run(scale=1.0, seed=0), rounds=3, iterations=1
    )
    assert [row["system"] for row in result.rows] == ["tune-v1", "tune-v2"]
    assert sum(row["fault_events"] for row in result.rows) > 0


# ---------------------------------------------------------------------------
# Outcome cache (incremental sweeps)
# ---------------------------------------------------------------------------


def test_sweep_warm_cache(benchmark, tmp_path):
    """Warm re-run of the cluster-size sweep through the outcome
    cache: every chain is a hit, so the measured time is pure cache
    overhead (key derivation + entry reads + merge), not simulation.
    The cold seeding run happens once, outside the timer."""
    cache_dir = str(tmp_path / "outcomes")
    sweep = get_sweep("cluster-size")
    cold = run_sweep(sweep, scale=0.3, seed=0, cache_dir=cache_dir)
    assert cold.cache_hits == 0 and cold.cache_misses > 0

    warm = benchmark.pedantic(
        lambda: run_sweep(sweep, scale=0.3, seed=0, cache_dir=cache_dir),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["chains"] = warm.cache_hits
    assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses
    assert [o.result.format_table() for o in warm.outcomes] == [
        o.result.format_table() for o in cold.outcomes
    ]
