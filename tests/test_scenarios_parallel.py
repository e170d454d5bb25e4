"""Parallel execution backends: chain partitioning and bit-identity.

Two families of guarantees:

* **planner/merge properties** — every pair of session-sharing steps
  lands in one chain (in plan-relative order), the chains tile the
  plan exactly, and merging per-chain outcomes restores plan order;
  proven over hypothesis-generated synthetic plans;
* **bit-identity** — all 15 committed exhibits rendered through the
  golden harness with ``workers=4`` byte-match the committed traces,
  and serial vs pooled execution agree on a novel scenario too. This
  is the determinism contract that makes the worker count a pure
  performance knob.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import EXHIBIT_RUNS, golden
from repro.scenarios import backends
from repro.scenarios import (
    SCENARIO_REGISTRY,
    AnalysisStep,
    FixedTrialStep,
    JobStep,
    ProcessPoolBackend,
    Scenario,
    ScenarioPlan,
    ScenarioRunner,
    SerialBackend,
    TraceStep,
    backend_for,
    chain_policy,
    fixed_trial,
    merge_outcomes,
    partition,
    pipetune,
    tune_v1,
    tune_v2,
)
from repro.workloads.registry import LENET_MNIST

# ---------------------------------------------------------------------------
# Synthetic plans for the partition/merge properties
# ---------------------------------------------------------------------------

#: policy pool: two distinct pipetune policies (distinct labels ->
#: distinct sessions), two session-less tuning policies, one fixed.
_POLICIES = (
    pipetune(),
    pipetune(label="pipetune-b"),
    tune_v1(),
    tune_v2(),
    fixed_trial(
        hyper={"batch_size": 64, "epochs": 2},
        system={"cores": 4, "memory_gb": 8.0},
    ),
)


def _analysis_fn(scale, seed):  # module-level: steps stay picklable
    return (scale, seed)


def _step_for(code: int, position: int):
    """Deterministic step from a small integer code (easy to shrink)."""
    policy = _POLICIES[code % len(_POLICIES)]
    family = code // len(_POLICIES)
    if family == 0 and policy.kind != "fixed":
        return JobStep(workload=LENET_MNIST, policy=policy, seed=code % 3)
    if family == 1:
        return FixedTrialStep(workload=LENET_MNIST, policy=policy, seed=code % 3)
    if family == 2:
        return TraceStep(policy=policy, num_jobs=4, seed=code % 3)
    return AnalysisStep(name=f"analysis-{position}", fn=_analysis_fn)


def _plan_from_codes(codes):
    steps = tuple(_step_for(code, i) for i, code in enumerate(codes))
    return ScenarioPlan(
        scenario=Scenario(name="synthetic", kind="analysis"),
        scale=1.0,
        seed=0,
        seeds=(0,),
        steps=steps,
    )


class TestChainPartition:
    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_chains_tile_the_plan_exactly(self, codes):
        plan = _plan_from_codes(codes)
        chains = partition(plan)
        seen = [i for chain in chains for i in chain.indices]
        assert sorted(seen) == list(range(len(plan.steps)))
        assert len(seen) == len(set(seen))
        for chain in chains:
            assert list(chain.indices) == sorted(chain.indices)

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_every_session_sharing_pair_lands_in_one_chain(self, codes):
        plan = _plan_from_codes(codes)
        chains = partition(plan)
        chain_of = {}
        for chain in chains:
            for i in chain.indices:
                chain_of[i] = chain.index
        for i, a in enumerate(plan.steps):
            for j, b in enumerate(plan.steps):
                key_a, key_b = chain_policy(a), chain_policy(b)
                if key_a is not None and key_a == key_b:
                    assert chain_of[i] == chain_of[j], (
                        f"steps {i} and {j} share policy {key_a.label!r} "
                        "but landed in different chains"
                    )
                elif i != j and key_a != key_b:
                    assert chain_of[i] != chain_of[j], (
                        f"steps {i} and {j} do not share a session but "
                        "landed in one chain"
                    )

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_sessionless_steps_are_singleton_chains(self, codes):
        plan = _plan_from_codes(codes)
        for chain in partition(plan):
            if not chain.shares_session:
                assert len(chain.steps) == 1
                assert chain_policy(chain.steps[0]) is None
            else:
                assert all(chain_policy(step) is not None for step in chain.steps)

    @given(st.lists(st.integers(min_value=0, max_value=19), max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_merge_restores_plan_order(self, codes):
        plan = _plan_from_codes(codes)
        chains = partition(plan)
        # outcome of step i is the sentinel i: merged must be 0..n-1.
        per_chain = [[("outcome", i) for i in chain.indices] for chain in chains]
        merged = merge_outcomes(plan, chains, per_chain)
        assert merged == [("outcome", i) for i in range(len(plan.steps))]

    def test_merge_rejects_wrong_outcome_count(self):
        plan = _plan_from_codes([0, 1, 2])
        chains = partition(plan)
        broken = [list(chain.indices) for chain in chains]
        broken[0] = broken[0] + ["extra"]
        with pytest.raises(ValueError, match="outcomes for"):
            merge_outcomes(plan, chains, broken)

    def test_merge_rejects_missing_chain(self):
        plan = _plan_from_codes([0, 1, 2])
        chains = partition(plan)
        with pytest.raises(ValueError, match="chains"):
            merge_outcomes(plan, chains[:-1], [list(c.indices) for c in chains])

    def test_registry_plans_partition_sanely(self):
        """Every registered scenario's canonical plan partitions into
        chains that tile it; pipetune policies collapse into one chain
        per policy."""
        for name, runner in SCENARIO_REGISTRY.items():
            plan = runner.plan(scale=0.34, seed=0)
            chains = plan.chains()
            seen = sorted(i for chain in chains for i in chain.indices)
            assert seen == list(range(len(plan.steps))), name
            session_chains = [c for c in chains if c.shares_session]
            pipetune_policies = {
                chain_policy(step)
                for step in plan.steps
                if chain_policy(step) is not None
            }
            assert len(session_chains) == len(pipetune_policies), name


# ---------------------------------------------------------------------------
# Backend behaviour
# ---------------------------------------------------------------------------


class TestBackends:
    def test_backend_for_resolution(self):
        assert isinstance(backend_for(None), SerialBackend)
        assert isinstance(backend_for(0), SerialBackend)
        assert isinstance(backend_for(1), SerialBackend)
        pool = backend_for(4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.workers == 4

    def test_pool_backend_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolBackend(workers=0)


# ---------------------------------------------------------------------------
# Bit-identity under the process pool
# ---------------------------------------------------------------------------


class TestParallelBitIdentity:
    def test_all_exhibits_byte_match_golden_with_four_workers(self):
        """The acceptance gate: every committed exhibit regenerates
        byte-for-byte through a 4-worker process pool."""
        diffs = golden.check(workers=4)
        mismatched = [d.name for d in diffs.values() if d.status != "ok"]
        assert not mismatched, (
            f"pooled execution diverged from golden traces: {mismatched}"
        )
        assert set(diffs) == set(EXHIBIT_RUNS)

    def test_novel_scenario_serial_equals_pooled(self):
        runner = SCENARIO_REGISTRY["asha-distributed-cnn"]
        serial = runner.run(scale=1.0, seed=0)
        pooled = runner.run(scale=1.0, seed=0, workers=4)
        assert serial.format_table() == pooled.format_table()

    def test_session_chain_scenario_serial_equals_pooled(self):
        """A scenario whose pipetune steps genuinely chain (two
        workloads, two repetitions through one session) must agree
        between backends — the chain executor replays the session
        evolution in plan-relative order."""
        scenario = (
            Scenario.builder("chain-identity")
            .workloads("lenet-mnist", "lenet-fashion")
            .algorithm("hyperband", max_epochs=3, eta=3)
            .compare(tune_v1(), pipetune())
            .repetitions(2)
            .build()
        )
        serial = ScenarioRunner(scenario).run(scale=1.0, seed=0)
        pooled = ScenarioRunner(scenario).run(scale=1.0, seed=0, workers=3)
        assert serial.format_table() == pooled.format_table()

    def test_worker_count_is_irrelevant(self):
        """2 vs 5 workers: scheduling changes, bytes cannot."""
        runner = SCENARIO_REGISTRY["fig09"]
        two = runner.run(scale=0.5, seed=0, workers=2)
        five = runner.run(scale=0.5, seed=0, workers=5)
        assert two.format_table() == five.format_table()

    def test_spawn_pool_byte_matches_golden(self, monkeypatch):
        """The start method is a latency knob only: a ``spawn`` worker
        is a fresh interpreter that rebuilds every memo and stream from
        the pickled declarations, so fig09's three chains on a 2-worker
        spawn pool still give the committed bytes."""
        run = EXHIBIT_RUNS["fig09"]
        plan = SCENARIO_REGISTRY["fig09"].plan(scale=run.scale, seed=run.seed)
        assert len(partition(plan)) >= 2
        methods = []
        monkeypatch.setattr(
            backends,
            "default_start_method",
            lambda: methods.append("spawn") or "spawn",
        )
        diffs = golden.check(names=["fig09"], workers=2)
        assert methods, "the pool did not ask for its start method"
        assert diffs["fig09"].status == "ok", "fig09 on a spawn pool diverged"

    def test_worker_count_is_irrelevant_against_golden(self):
        """2- and 5-worker runs at the canonical parameters both
        byte-match the committed golden — worker identity holds not
        just mutually but against the re-baselined traces (the
        draw-ahead blocks hand out noise by stream position, so the
        chunk layout must not shift a single draw)."""
        for workers in (2, 5):
            diffs = golden.check(names=["fig09"], workers=workers)
            assert diffs["fig09"].status == "ok", (
                f"fig09 with {workers} workers diverged from golden"
            )
