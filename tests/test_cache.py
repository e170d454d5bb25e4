"""Content-addressed outcome cache: keys, store, backend, sweeps.

The cache contract under test is the determinism contract extended to
disk: a chain outcome recalled from the store must be byte-identical
to a recompute (`CachingBackend` hits merge through the same
``merge_outcomes`` as live results), any damaged entry is a miss that
recomputes (never a crash, never wrong bytes), and a salt bump
invalidates everything at once.
"""

import os
import pickle
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exhibits import render
from repro.experiments import golden
from repro.scenarios import (
    SCENARIO_REGISTRY,
    CachingBackend,
    OutcomeCache,
    Scenario,
    SweepAxis,
    SweepRunStore,
    chain_key,
    compare_sweep_runs,
    get_definition,
    partition,
    register,
    run_reports,
    run_scenario,
    run_sweep,
)
from repro.scenarios.backends import SerialBackend, backend_for
from repro.scenarios.cache import (
    _ENTRY_SUFFIX,
    _MAGIC,
    NoSweepRuns,
    measurement_name,
    sweep_points,
)
from repro.scenarios.containment import ChainFailure
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep
from repro.scenarios.sweep import Sweep


def _cached_run(name, backend, scale=1.0, seed=0):
    """(table, CacheStats) of one scenario run through ``backend``."""
    runner = get_definition(name)
    plan = runner.plan(scale=scale, seed=seed)
    (report,) = run_reports(backend, [(runner, plan)])
    return report.unwrap(), report.cache_stats


def _fig09_plan(scale=0.3, seed=0):
    runner = get_definition("fig09")
    plan = runner.plan(scale=scale, seed=seed)
    return runner, plan


# ---------------------------------------------------------------------------
# chain keys
# ---------------------------------------------------------------------------


class TestChainKey:
    def test_stable_across_processes_inputs_only(self):
        runner, plan = _fig09_plan()
        chains = partition(plan)
        again = partition(_fig09_plan()[1])
        for chain, other in zip(chains, again):
            assert chain_key(plan, chain) == chain_key(plan, other)

    def test_seed_scale_and_salt_change_the_key(self):
        _, plan = _fig09_plan(scale=0.3, seed=0)
        chain = partition(plan)[0]
        base = chain_key(plan, chain)
        _, other_seed = _fig09_plan(scale=0.3, seed=1)
        _, other_scale = _fig09_plan(scale=0.4, seed=0)
        assert chain_key(other_seed, partition(other_seed)[0]) != base
        assert chain_key(other_scale, partition(other_scale)[0]) != base
        assert chain_key(plan, chain, salt="other-salt") != base

    def test_analysis_fn_identity_does_not_leak_into_the_key(self):
        # repr(AnalysisStep) embeds the fn's memory address; the key
        # must depend on the step *name* only, or no analysis chain
        # could ever hit across processes.
        def fn_a(scale, seed):
            return None

        def fn_b(scale, seed):
            return None

        def plan_with(fn):
            name = "cache-key-probe"
            register(
                Scenario.builder(name).kind("analysis").build(),
                plan_fn=lambda scenario, scale, seed: [
                    AnalysisStep(name="probe", fn=fn)
                ],
                replace=True,
            )
            try:
                runner = get_definition(name)
                return runner.plan(scale=1.0, seed=0)
            finally:
                SCENARIO_REGISTRY.pop(name, None)

        plan_a, plan_b = plan_with(fn_a), plan_with(fn_b)
        key_a = chain_key(plan_a, partition(plan_a)[0])
        key_b = chain_key(plan_b, partition(plan_b)[0])
        assert key_a == key_b


# ---------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------


class TestOutcomeCache:
    def test_miss_on_empty_store(self, tmp_path):
        cache = OutcomeCache(str(tmp_path))
        assert cache.load("ab" * 32) is None
        assert len(cache) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**60), max_value=2**60),
                st.floats(allow_nan=False, allow_infinity=True),
                st.text(max_size=40),
                st.dictionaries(
                    st.text(max_size=8),
                    st.floats(allow_nan=False),
                    max_size=4,
                ),
                st.tuples(st.integers(), st.floats(allow_nan=False)),
            ),
            max_size=8,
        )
    )
    def test_round_trip_is_bit_identical(self, outcomes):
        import tempfile

        with tempfile.TemporaryDirectory() as root:
            cache = OutcomeCache(root)
            digest = "cd" * 32
            assert cache.store(digest, outcomes)
            loaded = cache.load(digest)
            assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == (
                pickle.dumps(list(outcomes), protocol=pickle.HIGHEST_PROTOCOL)
            )

    def test_nan_survives_the_round_trip(self, tmp_path):
        cache = OutcomeCache(str(tmp_path))
        assert cache.store("ef" * 32, [float("nan"), 1.0])
        loaded = cache.load("ef" * 32)
        assert loaded[0] != loaded[0] and loaded[1] == 1.0

    def test_refuses_to_store_failures(self, tmp_path):
        cache = OutcomeCache(str(tmp_path))
        failure = ChainFailure(
            scenario="s",
            chain_index=0,
            step_index=0,
            step_label="x",
            error_type="RuntimeError",
            error="boom",
        )
        assert not cache.store("01" * 32, [1.0, failure])
        assert cache.load("01" * 32) is None

    def _entry_path(self, cache, digest):
        cache.store(digest, [1, 2.5, "three"])
        path = cache._path(digest)
        assert os.path.exists(path)
        return path

    @pytest.mark.parametrize(
        "damage",
        ["truncate", "garbage", "flip_payload_byte", "empty", "bad_magic"],
    )
    def test_any_damage_is_a_miss_never_a_crash(self, tmp_path, damage):
        cache = OutcomeCache(str(tmp_path))
        digest = "23" * 32
        path = self._entry_path(cache, digest)
        with open(path, "rb") as handle:
            blob = handle.read()
        if damage == "truncate":
            blob = blob[: len(blob) // 2]
        elif damage == "garbage":
            blob = b"not an entry at all"
        elif damage == "flip_payload_byte":
            blob = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        elif damage == "empty":
            blob = b""
        elif damage == "bad_magic":
            blob = b"x" + blob[1:]
        with open(path, "wb") as handle:
            handle.write(blob)
        assert cache.load(digest) is None
        # a recompute overwrites the damaged entry and hits again
        assert cache.store(digest, [1, 2.5, "three"])
        assert cache.load(digest) == [1, 2.5, "three"]

    def test_entry_format_is_checksummed(self, tmp_path):
        cache = OutcomeCache(str(tmp_path))
        path = self._entry_path(cache, "45" * 32)
        with open(path, "rb") as handle:
            blob = handle.read()
        assert blob.startswith(_MAGIC)
        assert path.endswith(_ENTRY_SUFFIX)

    def test_fresh_empty_cache_is_not_replaced_by_the_default(self, tmp_path):
        # OutcomeCache defines __len__, so an empty cache is falsy —
        # the backend must never `or` it away into the default root.
        backend = CachingBackend(SerialBackend(), OutcomeCache(str(tmp_path)))
        assert backend.cache.root == str(tmp_path)
        assert backend_for(cache_dir=str(tmp_path)).cache.root == str(tmp_path)


# ---------------------------------------------------------------------------
# the caching backend
# ---------------------------------------------------------------------------


class TestCachingBackend:
    def test_needs_a_chain_granular_backend(self):
        with pytest.raises(TypeError):
            CachingBackend(object())

    def test_warm_run_skips_execution_entirely(self, tmp_path):
        calls = []

        def counted(scale, seed):
            calls.append(1)
            result = ExperimentResult(exhibit="c", title="c", columns=["v"])
            result.add_row(v=1.5)
            return result

        name = "cache-count-probe"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=lambda scenario, scale, seed: [
                AnalysisStep(name=f"step{i}", fn=counted) for i in range(3)
            ],
            replace=True,
        )
        try:
            cold = run_scenario(name, backend=backend_for(cache_dir=str(tmp_path)))
            assert len(calls) == 3
            warm, stats = _cached_run(name, backend_for(cache_dir=str(tmp_path)))
            assert len(calls) == 3  # nothing executed on the warm run
            assert stats.hits == 3
            assert stats.misses == 0
            assert warm.format_table() == cold.format_table()
        finally:
            SCENARIO_REGISTRY.pop(name, None)

    def test_cold_vs_warm_bytes_identical_for_an_exhibit(self, tmp_path):
        cold = render("fig09", cache_dir=str(tmp_path))
        result, stats = _cached_run("fig09", backend_for(cache_dir=str(tmp_path)))
        warm = golden.render_result(result)
        assert stats.misses == 0 and stats.hits > 0
        assert warm == cold
        with open(
            golden.committed_path("fig09"), "r", encoding="utf-8", newline=""
        ) as handle:
            assert cold == handle.read()

    def test_salt_change_invalidates_every_entry(self, tmp_path):
        _, first = _cached_run("fig09", backend_for(cache_dir=str(tmp_path)), 0.3)
        assert first.misses > 0
        stale = CachingBackend(
            SerialBackend(), OutcomeCache(str(tmp_path), salt="outcome-cache-v2")
        )
        _, stats = _cached_run("fig09", stale, scale=0.3)
        assert stats.hits == 0
        assert stats.misses == first.misses

    def test_contained_backend_also_caches(self, tmp_path):
        cache = OutcomeCache(str(tmp_path))
        cold = CachingBackend(SerialBackend(), cache)
        result_cold, cold_stats = _cached_run("fig08", cold, scale=0.3)
        warm = CachingBackend(SerialBackend(), cache)
        result_warm, stats = _cached_run("fig08", warm, scale=0.3)
        assert stats.misses == 0 and stats.hits == cold_stats.misses
        assert result_warm.format_table() == result_cold.format_table()


# ---------------------------------------------------------------------------
# sweeps: incremental re-runs + persistence + compare
# ---------------------------------------------------------------------------


class TestSweepCache:
    def test_superset_sweep_executes_only_the_new_variants(self, tmp_path):
        base = Sweep(
            name="cache-nodes-small",
            scenario="fig09",
            axes=(SweepAxis("cluster.nodes", (2, 4)),),
        )
        grown = Sweep(
            name="cache-nodes-grown",
            scenario="fig09",
            axes=(SweepAxis("cluster.nodes", (2, 4, 8)),),
        )
        cold = run_sweep(base, scale=0.3, cache_dir=str(tmp_path))
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        warm = run_sweep(grown, scale=0.3, cache_dir=str(tmp_path))
        per_chain = cold.cache_misses // len(cold.outcomes)
        # the two shared variants hit; only cluster.nodes=8 executes
        assert warm.cache_hits == cold.cache_misses
        assert warm.cache_misses == per_chain
        shared_cold = {v.name: v.result.format_table() for v in cold.outcomes}
        hit_variants = [v for v in warm.outcomes if v.cache_stats.misses == 0]
        assert {v.name for v in hit_variants} == set(shared_cold)
        for variant in hit_variants:
            assert variant.result.format_table() == shared_cold[variant.name]

    def test_measurement_name_is_tsdb_safe(self):
        safe = measurement_name("fig09[cluster.nodes=2, x=y]\n")
        assert "=" not in safe and "," not in safe and " " not in safe

    def test_sweep_points_tag_axis_values(self, tmp_path):
        outcome = run_sweep("cluster-size", scale=0.3, cache_dir=str(tmp_path))
        points = sweep_points(outcome)
        assert points
        assert all(point.fields for point in points)
        assert all("cluster.nodes" in point.tags for point in points)

    def test_store_save_load_and_compare_identical_runs(self, tmp_path):
        store = SweepRunStore(str(tmp_path))
        with pytest.raises(NoSweepRuns):
            compare_sweep_runs(store, "cluster-size")
        first = run_sweep("cluster-size", scale=0.3, cache_dir=str(tmp_path))
        run_a = store.save(first)
        second = run_sweep("cluster-size", scale=0.3, cache_dir=str(tmp_path))
        run_b = store.save(second)
        assert store.runs("cluster-size") == [run_a, run_b]
        meta, points = store.load("cluster-size", run_a)
        assert meta["run_id"] == run_a and meta["points"] > 0
        comparison = compare_sweep_runs(store, "cluster-size")
        assert comparison["run_a"] == run_a and comparison["run_b"] == run_b
        assert comparison["identical"]
        assert comparison["rows"]
        assert all(row["delta"] == 0 for row in comparison["rows"])

    def test_compare_detects_a_changed_run(self, tmp_path):
        store = SweepRunStore(str(tmp_path))
        first = run_sweep("cluster-size", scale=0.3, cache_dir=str(tmp_path))
        store.save(first)
        second = run_sweep("cluster-size", scale=0.3, seed=1)
        store.save(second)
        comparison = compare_sweep_runs(store, "cluster-size")
        assert not comparison["identical"]

    def test_unknown_run_id_raises_key_error(self, tmp_path):
        store = SweepRunStore(str(tmp_path))
        with pytest.raises(KeyError):
            store.load("cluster-size", "0000")


# ---------------------------------------------------------------------------
# golden harness + CLI plumbing
# ---------------------------------------------------------------------------


class TestGoldenCachePlumbing:
    def test_check_reports_hit_miss_counters(self, tmp_path):
        cold = golden.check(["fig09"], cache_dir=str(tmp_path))["fig09"]
        assert cold.matches and cold.cache_stats.hits == 0
        assert cold.cache_stats.misses > 0
        warm = golden.check(["fig09"], cache_dir=str(tmp_path))["fig09"]
        assert warm.matches and warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == cold.cache_stats.misses
        uncached = golden.check(["fig09"])["fig09"]
        assert uncached.cache_stats is None

    def test_cli_sweep_run_and_compare_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path)
        for _ in range(2):
            code = main(
                [
                    "sweep",
                    "run",
                    "cluster-size",
                    "--scale",
                    "0.3",
                    "--cache",
                    "--cache-dir",
                    cache_dir,
                ]
            )
            assert code == 0
        capsys.readouterr()
        code = main(
            ["sweep", "compare", "cluster-size", "--cache-dir", cache_dir, "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        import json

        envelope = json.loads(out)
        assert envelope["ok"] and envelope["data"]["identical"]

    def test_cli_scenario_run_reports_cache(self, tmp_path, capsys):
        import json

        from repro.cli import main

        args = [
            "scenario",
            "run",
            "fig08",
            "--scale",
            "0.3",
            "--json",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)["data"]["cache"]
        assert cold["hits"] == 0 and cold["misses"] > 0
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)["data"]["cache"]
        assert warm["misses"] == 0 and warm["hits"] == cold["misses"]
