"""Hostile-world robustness tests (PR 6).

Four concerns, one file:

* the fault taxonomy — every :class:`TrialError` subclass can be
  raised by injection, is contained into a :class:`TrialFailure`, and
  never crashes the HPT job;
* determinism of injected chaos — fault schedules are pure functions
  of their counter keys, identical serial vs pooled (hypothesis
  property plus end-to-end byte equality);
* harness containment — a raising chain, a dying worker or a hung
  worker produces structured :class:`ChainFailure` outcomes instead of
  poisoning the pool, and a run that unwraps one raises the same
  step context at any worker count;
* graceful sweeps — one crashing variant still yields every other
  variant's table.
"""

import multiprocessing
import os
import tempfile
import threading
import time
from concurrent import futures
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    SCENARIO_REGISTRY,
    PAPER_DISTRIBUTED_CLUSTER,
    ChainFailure,
    FailureSpec,
    ProcessPoolBackend,
    Scenario,
    ScenarioRunner,
    SerialBackend,
    StepExecutionError,
    Sweep,
    SweepAxis,
    execute_job,
    get_definition,
    register,
    run_sweep,
)
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep
from repro.simulation.cluster import NodeSpec, SimCluster
from repro.simulation.des import Environment
from repro.tune.errors import (
    NodeDeparted,
    TrialCrashed,
    TrialError,
    TrialPreempted,
)
from exhibits import render
from repro.experiments import golden
from repro.tune.faults import (
    ChurnSpec,
    CrashSpec,
    FaultModel,
    PreemptionSpec,
    RetryPolicy,
    StragglerSpec,
    _schedule,
)
from repro.tune.runner import HptJobSpec, TrialFailure
from repro.tune.trainer import run_trial
from repro.hpo.algorithms import RandomSearch
from repro.hpo.space import joint_space
from repro.tune.objectives import accuracy_per_time_objective
from repro.workloads.registry import LENET_MNIST
from repro.workloads.spec import HyperParams, SystemParams

# ---------------------------------------------------------------------------
# Fault taxonomy: every error type injected, contained, survivable
# ---------------------------------------------------------------------------


def run_faulty_trial(faults, attempt=0):
    env = Environment()
    cluster = SimCluster(env, [NodeSpec("n0", cores=16, memory_gb=64.0)])
    process = env.process(
        run_trial(
            env,
            cluster,
            trial_id="t0",
            workload=LENET_MNIST,
            hyper=HyperParams(batch_size=128, epochs=3),
            system=SystemParams(cores=4, memory_gb=16.0),
            faults=faults,
            attempt=attempt,
        )
    )
    env.run()
    return env, cluster, process


class TestFaultTaxonomy:
    def test_certain_preemption_raises(self):
        faults = FaultModel(preemption=PreemptionSpec(rate_per_epoch=1.0))
        _, _, process = run_faulty_trial(faults)
        with pytest.raises(TrialPreempted) as err:
            _ = process.value
        assert err.value.epoch == 1
        assert err.value.checkpoint_epoch == 0
        assert isinstance(err.value, TrialError)

    def test_certain_churn_raises(self):
        faults = FaultModel(churn=ChurnSpec(rate_per_epoch=1.0))
        _, _, process = run_faulty_trial(faults)
        with pytest.raises(NodeDeparted) as err:
            _ = process.value
        assert err.value.node == "n0"

    def test_certain_crash_raises(self):
        faults = FaultModel(crash=CrashSpec(rate_per_epoch=1.0))
        _, _, process = run_faulty_trial(faults)
        with pytest.raises(TrialCrashed) as err:
            _ = process.value
        assert err.value.epoch == 1

    def test_fault_resources_released(self):
        faults = FaultModel(crash=CrashSpec(rate_per_epoch=1.0))
        _, cluster, process = run_faulty_trial(faults)
        with pytest.raises(TrialCrashed):
            _ = process.value
        node = cluster.nodes[0]
        assert node.cores.level == node.spec.cores
        assert node.memory.level == node.spec.memory_gb

    def test_fault_costs_simulated_time(self):
        faults = FaultModel(crash=CrashSpec(rate_per_epoch=1.0))
        env, _, process = run_faulty_trial(faults)
        with pytest.raises(TrialCrashed):
            _ = process.value
        assert env.now > 0  # the partial epoch was simulated

    def test_straggler_slows_but_completes(self):
        slow = FaultModel(
            straggler=StragglerSpec(fraction=1.0, slowdown=3.0)
        )
        env_slow, _, p_slow = run_faulty_trial(slow)
        env_fast, _, p_fast = run_faulty_trial(None)
        assert p_slow.value.accuracy == p_fast.value.accuracy
        assert env_slow.now == pytest.approx(3.0 * env_fast.now)

    def test_inactive_model_changes_nothing(self):
        env_off, _, p_off = run_faulty_trial(FaultModel())
        env_none, _, p_none = run_faulty_trial(None)
        assert env_off.now == env_none.now
        assert p_off.value.accuracy == p_none.value.accuracy


class TestJobSurvivesFaults:
    def job_spec(self, faults, retry=None, num_samples=12):
        space = joint_space(nlp=False)
        return HptJobSpec(
            workload=LENET_MNIST,
            algorithm_factory=lambda: RandomSearch(
                space, num_samples=num_samples, seed=3
            ),
            objective=accuracy_per_time_objective,
            system_policy="v2",
            faults=faults,
            retry=retry,
        )

    def run(self, spec):
        return execute_job(spec, PAPER_DISTRIBUTED_CLUSTER)

    def test_unrecoverable_crashes_become_failures(self):
        result = self.run(
            self.job_spec(FaultModel(crash=CrashSpec(rate_per_epoch=1.0)))
        )
        assert result.num_trials == 0
        assert result.num_failures == 12
        for failure in result.failures:
            assert isinstance(failure, TrialFailure)
            assert isinstance(failure.error, TrialCrashed)
        assert all(e.action == "gave-up" for e in result.fault_events)

    def test_retry_policy_recovers_transient_crashes(self):
        faults = FaultModel(crash=CrashSpec(rate_per_epoch=0.3))
        no_retry = self.run(self.job_spec(faults))
        retried = self.run(
            self.job_spec(faults, retry=RetryPolicy(max_retries=3))
        )
        assert retried.num_trials > no_retry.num_trials
        assert any(e.action == "retried" for e in retried.fault_events)

    def test_preemption_budget_exhaustion_gives_up(self):
        faults = FaultModel(
            preemption=PreemptionSpec(rate_per_epoch=1.0, max_events=2)
        )
        result = self.run(self.job_spec(faults, num_samples=4))
        assert result.num_failures == 4
        for failure in result.failures:
            assert isinstance(failure.error, TrialPreempted)
        actions = [e.action for e in result.fault_events]
        assert actions.count("gave-up") == 4
        assert actions.count("resumed") == 8  # 2 resumes per trial

    def test_churn_restarts_within_budget(self):
        faults = FaultModel(churn=ChurnSpec(rate_per_epoch=0.2, max_events=5))
        result = self.run(self.job_spec(faults))
        assert result.num_trials > 0
        restarted = [e for e in result.fault_events if e.action == "restarted"]
        assert restarted, "0.2/epoch churn over 12 trials must hit"
        for failure in result.failures:
            assert isinstance(failure.error, NodeDeparted)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=10.0, backoff_factor=2.0)
        assert [policy.backoff_s(i) for i in range(3)] == [10.0, 20.0, 40.0]


# ---------------------------------------------------------------------------
# Determinism of injected chaos
# ---------------------------------------------------------------------------


def _draw_task(payload):
    model, key = payload
    return model.draw_event(*key)


class TestFaultDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(
        crash=st.floats(0.0, 0.5),
        churn=st.floats(0.0, 0.5),
        trials=st.integers(1, 5),
    )
    def test_fault_schedule_identical_serial_vs_pooled(self, crash, churn, trials):
        """The fault schedule is a pure function of the counter keys:
        drawing it in-process and drawing it on a worker pool (any
        order, any process) must produce the same events."""
        model = FaultModel(
            crash=CrashSpec(rate_per_epoch=crash),
            churn=ChurnSpec(rate_per_epoch=churn),
        )
        keys = [
            (f"trial-{i}", attempt, epoch)
            for i in range(trials)
            for attempt in range(2)
            for epoch in range(1, 8)
        ]
        serial = [model.draw_event(*key) for key in keys]
        reversed_order = [model.draw_event(*key) for key in reversed(keys)]
        assert serial == list(reversed(reversed_order))
        with multiprocessing.get_context("fork").Pool(2) as pool:
            pooled = pool.map(_draw_task, [(model, key) for key in keys])
        assert serial == pooled

    def test_job_fault_events_are_reproducible(self):
        faults = FaultModel(
            preemption=PreemptionSpec(rate_per_epoch=0.1),
            crash=CrashSpec(rate_per_epoch=0.05),
        )
        job = TestJobSurvivesFaults()
        a = job.run(job.job_spec(faults, retry=RetryPolicy(max_retries=1)))
        b = job.run(job.job_spec(faults, retry=RetryPolicy(max_retries=1)))
        assert a.fault_events == b.fault_events
        assert a.tuning_time_s == b.tuning_time_s

    def test_hostile_scenario_serial_vs_pooled_bytes(self):
        runner = get_definition("churn-and-crashes")
        serial = runner.run(scale=1.0, seed=0)
        pooled = runner.run(scale=1.0, seed=0, workers=4)
        assert serial.format_table() == pooled.format_table()

    def test_hostile_fault_ledgers_identical_across_backends(self):
        runner = get_definition("spot-market-lenet")
        plan = runner.plan(scale=1.0, seed=0)
        serial = runner.execute(plan)
        pooled = runner.execute(plan, workers=4)
        assert [r.fault_events for r in serial] == [r.fault_events for r in pooled]


# ---------------------------------------------------------------------------
# The memoized per-attempt fault schedule
# ---------------------------------------------------------------------------


def scanned_schedule(model, trial_id, attempt, first, last):
    """The oracle: ``schedule`` spelled out as the per-epoch draws."""
    slowdown = model.straggler_slowdown(trial_id, attempt)
    for epoch in range(first, last + 1):
        event = model.draw_event(trial_id, attempt, epoch)
        if event is not None:
            return slowdown, (epoch, *event)
    return slowdown, None


rates = st.one_of(st.none(), st.floats(0.0, 1.0), st.sampled_from([0, 1]))


@st.composite
def fault_models(draw):
    def spec(cls, **fields):
        return None if any(v is None for v in fields.values()) else cls(**fields)

    straggler = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    return FaultModel(
        preemption=spec(PreemptionSpec, rate_per_epoch=draw(rates)),
        churn=spec(ChurnSpec, rate_per_epoch=draw(rates)),
        crash=spec(CrashSpec, rate_per_epoch=draw(rates)),
        straggler=spec(StragglerSpec, fraction=straggler),
    )


class TestFaultSchedule:
    MODEL = FaultModel(
        preemption=PreemptionSpec(rate_per_epoch=0.1),
        crash=CrashSpec(rate_per_epoch=0.05),
        straggler=StragglerSpec(fraction=0.5),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        model=fault_models(),
        trial=st.integers(0, 50),
        attempt=st.integers(0, 3),
        first=st.integers(1, 12),
        length=st.integers(0, 12),
    )
    def test_schedule_equals_scan_of_draws(self, model, trial, attempt, first, length):
        key = (f"trial-{trial}", attempt, first, first + length)
        assert model.schedule(*key) == scanned_schedule(model, *key)

    def test_hit_equals_miss_equals_recompute(self):
        _schedule.cache_clear()
        keys = [(f"t{i}", a, 1, 20) for i in range(6) for a in range(2)]
        missed = [self.MODEL.schedule(*key) for key in keys]
        assert _schedule.cache_info().misses == len(keys)
        hit = [self.MODEL.schedule(*key) for key in keys]
        assert _schedule.cache_info().hits == len(keys)
        _schedule.cache_clear()
        recomputed = [self.MODEL.schedule(*key) for key in keys]
        assert missed == hit == recomputed
        assert any(entry[1] is not None for entry in missed)

    def test_int_and_float_rates_do_not_share_an_entry(self):
        # 1 == 1.0, but the two reprs key different streams.
        as_int = FaultModel(crash=CrashSpec(rate_per_epoch=1))
        as_float = FaultModel(crash=CrashSpec(rate_per_epoch=1.0))
        assert as_int == as_float
        _schedule.cache_clear()
        for model in (as_int, as_float):
            assert model.schedule("t0", 0, 1, 5) == scanned_schedule(
                model, "t0", 0, 1, 5
            )
        assert _schedule.cache_info().misses == 2
        assert _schedule.cache_info().hits == 0

    def test_inactive_model_leaves_the_memo_alone(self):
        before = _schedule.cache_info()
        assert FaultModel().schedule("t0", 0, 1, 30) == (1.0, None)
        assert _schedule.cache_info() == before

    def test_second_hostile_render_misses_nothing(self):
        # The daemon's path: a job recomputed in the same process reads
        # every schedule from the memo, and the bytes do not move.
        names = ["spot-market-lenet", "churn-and-crashes", "hostile-storm"]
        _schedule.cache_clear()
        for render_pass in range(2):
            before = _schedule.cache_info().misses
            for name in names:
                with open(
                    golden.committed_path(name), "r", encoding="utf-8", newline=""
                ) as handle:
                    assert render(name) == handle.read(), name
            if render_pass:
                assert _schedule.cache_info().misses == before
        assert _schedule.cache_info().hits > 0


# ---------------------------------------------------------------------------
# Harness containment: raising chains, dying workers, hung workers
# ---------------------------------------------------------------------------


def _ok_analysis(scale, seed):
    result = ExperimentResult(exhibit="ok", title="ok", columns=["value"])
    result.add_row(value=1)
    return result


def _boom_analysis(scale, seed):
    raise RuntimeError("deliberate chain crash")


def _exit_analysis(scale, seed):
    os._exit(13)  # kill the worker outright: no exception, no cleanup


def _sleep_analysis(scale, seed):
    time.sleep(600)


#: directory the logged crasher marks each of its runs in; process
#: environment reaches forked and spawned pool workers alike.
_EXIT_LOG_ENV = "REPRO_TEST_EXIT_LOG_DIR"


def _logged_exit_analysis(scale, seed):
    handle, _ = tempfile.mkstemp(prefix="exit-", dir=os.environ[_EXIT_LOG_ENV])
    os.close(handle)
    os._exit(13)


def _slow_ok(scale, seed):
    time.sleep(1.0)  # still running when the crasher breaks the pool
    return _ok_analysis(scale, seed)


def _spin(stop: threading.Event) -> None:
    """Hold the interpreter lock as much as a thread can until ``stop``."""
    while not stop.is_set():
        pass


def analysis_runner(*fns):
    scenario = Scenario(name="containment-probe", kind="analysis")
    steps = [
        AnalysisStep(name=f"step{i}", fn=fn) for i, fn in enumerate(fns)
    ]
    return ScenarioRunner(
        scenario,
        collector=lambda plan, outcomes: outcomes,
        plan_fn=lambda scenario, scale, seed: steps,
    )


class TestContainment:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_step_raises_alike_at_any_worker_count(self, workers):
        runner = analysis_runner(_ok_analysis, _boom_analysis)
        with pytest.raises(StepExecutionError) as err:
            runner.run(workers=workers)
        failure = err.value.failure
        assert failure.scenario == "containment-probe"
        assert failure.step_index == 1
        assert failure.step_label == "analysis step1"
        assert failure.error_type == "RuntimeError"
        assert str(err.value) == (
            "scenario 'containment-probe': step 1 (analysis step1) in chain 1 "
            "failed: RuntimeError: deliberate chain crash"
        )

        def untraced(outcomes):
            return [
                replace(o, traceback="") if isinstance(o, ChainFailure) else o
                for o in outcomes
            ]

        plan = runner.plan()
        outcomes = runner.execute(plan, workers=workers)
        assert isinstance(outcomes[1], ChainFailure)
        assert untraced(outcomes) == untraced(runner.execute(plan, workers=1))

    def test_serial_backend_turns_failure_into_outcomes(self):
        runner = analysis_runner(_boom_analysis, _ok_analysis)
        outcomes = runner.execute(runner.plan(), backend=SerialBackend())
        assert isinstance(outcomes[0], ChainFailure)
        assert outcomes[0].error_type == "RuntimeError"
        assert "deliberate chain crash" in outcomes[0].traceback
        assert isinstance(outcomes[1], ExperimentResult)

    def test_unsubmitted_chain_completes_on_isolated_retry(self):
        # two sleepers fill both workers, so the first round times out
        # before the third chain is ever submitted; its isolated retry
        # then runs it to a result while both sleepers time out again.
        rounds = []

        class Recording(ProcessPoolBackend):
            def _round(self, tasks, positions, workers):
                pending = yield from super()._round(tasks, positions, workers)
                rounds.append((list(positions), workers, pending))
                return pending

        runner = analysis_runner(_sleep_analysis, _sleep_analysis, _ok_analysis)
        backend = Recording(workers=2, chain_timeout_s=2.0)
        outcomes = runner.execute(runner.plan(), backend=backend)
        first_positions, first_workers, first_pending = rounds[0]
        assert (first_positions, first_workers) == ([0, 1, 2], 2)
        reasons = {position: reason for position, _, reason in first_pending}
        assert "not submitted" in reasons[2]
        assert [(positions, workers) for positions, workers, _ in rounds[1:]] == [
            ([0], 1),
            ([1], 1),
            ([2], 1),
        ]
        assert rounds[3][2] == []  # the unsubmitted chain's retry finished
        assert isinstance(outcomes[2], ExperimentResult)
        for failure in outcomes[:2]:
            assert isinstance(failure, ChainFailure)
            assert failure.error_type == "TimeoutError"

    def test_raising_chain_contained_in_pool(self):
        runner = analysis_runner(_ok_analysis, _boom_analysis, _ok_analysis)
        plan = runner.plan()
        outcomes = runner.execute(plan, workers=2)
        assert isinstance(outcomes[0], ExperimentResult)
        assert isinstance(outcomes[2], ExperimentResult)
        failure = outcomes[1]
        assert isinstance(failure, ChainFailure)
        assert failure.error_type == "RuntimeError"
        assert "deliberate chain crash" in failure.error
        assert "deliberate chain crash" in failure.traceback
        assert failure.step_index == 1
        assert not failure.skipped

    def test_dying_worker_does_not_poison_the_pool(self):
        runner = analysis_runner(_exit_analysis, _ok_analysis, _ok_analysis)
        plan = runner.plan()
        backend = ProcessPoolBackend(workers=2)
        outcomes = runner.execute(plan, backend=backend)
        failure = outcomes[0]
        assert isinstance(failure, ChainFailure)
        assert failure.error_type == "BrokenProcessPool"
        # innocent bystanders survive (round 1 or isolated retry)
        assert isinstance(outcomes[1], ExperimentResult)
        assert isinstance(outcomes[2], ExperimentResult)

    def test_hung_worker_times_out_and_is_reported(self):
        runner = analysis_runner(_sleep_analysis, _ok_analysis)
        plan = runner.plan()
        backend = ProcessPoolBackend(workers=2, chain_timeout_s=2.0)
        started = time.monotonic()
        outcomes = runner.execute(plan, backend=backend)
        assert time.monotonic() - started < 60
        failure = outcomes[0]
        assert isinstance(failure, ChainFailure)
        assert failure.error_type == "TimeoutError"
        assert isinstance(outcomes[1], ExperimentResult)

    def test_stop_is_polled_between_isolated_retries(self, tmp_path, monkeypatch):
        # The crasher breaks the shared pool, so all three chains are
        # retried in isolation, crasher first. Its retry flips the stop
        # hook; the two chains not yet retried must come back as
        # skipped cancellations instead of running anyway.
        monkeypatch.setenv(_EXIT_LOG_ENV, str(tmp_path))
        runner = analysis_runner(_logged_exit_analysis, _slow_ok, _slow_ok)

        def stop():
            return len(list(tmp_path.glob("exit-*"))) >= 2

        backend = ProcessPoolBackend(workers=3, stop=stop)
        outcomes = runner.execute(runner.plan(), backend=backend)
        assert outcomes[0].error_type == "BrokenProcessPool"
        assert not outcomes[0].skipped
        for cancelled in outcomes[1:]:
            assert isinstance(cancelled, ChainFailure)
            assert cancelled.error_type == "JobCancelled"
            assert cancelled.skipped

    def test_stop_before_the_run_cancels_every_chain_unsubmitted(self, monkeypatch):
        # a pool whose stop hook is already set hands nothing to a
        # worker process: every chain, even a crasher, is cancelled.
        submitted = []
        real_submit = futures.ProcessPoolExecutor.submit

        def submit(executor, *args, **kwargs):
            submitted.append(args)
            return real_submit(executor, *args, **kwargs)

        monkeypatch.setattr(futures.ProcessPoolExecutor, "submit", submit)
        runner = analysis_runner(_ok_analysis, _exit_analysis, _boom_analysis)
        backend = ProcessPoolBackend(workers=2, stop=lambda: True)
        outcomes = runner.execute(runner.plan(), backend=backend)
        assert submitted == []
        assert multiprocessing.active_children() == []
        assert len(outcomes) == 3
        for cancelled in outcomes:
            assert isinstance(cancelled, ChainFailure)
            assert cancelled.error_type == "JobCancelled"
            assert cancelled.skipped

    def test_no_worker_outlives_its_round_under_gil_contention(self):
        # The executor's manager thread reaps workers too. A round that
        # returned before it had could leave a reaped worker reading as
        # alive: its exit status not yet recorded while the manager
        # thread waited for the interpreter lock.
        runner = analysis_runner(_ok_analysis, _ok_analysis)
        backend = ProcessPoolBackend(workers=2)
        stop = threading.Event()
        spinner = threading.Thread(target=_spin, args=(stop,))
        spinner.start()
        try:
            outlived = 0
            for _ in range(12):
                runner.execute(runner.plan(), backend=backend)
                alive = multiprocessing.active_children()
                outlived += bool(alive)
                for child in alive:
                    child.terminate()
                    child.join(timeout=5.0)
        finally:
            stop.set()
            spinner.join(timeout=5.0)
        assert not spinner.is_alive()
        assert outlived == 0

    def test_backend_parameter_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, chain_timeout_s=-1.0)


# ---------------------------------------------------------------------------
# Declarative surface: strict parsing + validation
# ---------------------------------------------------------------------------


class TestFailureSpecSurface:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown failure field.*'oom'"):
            FailureSpec.from_dict({"oom": 2.0})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ValueError, match="failures.crash.*'rate'"):
            FailureSpec.from_dict({"crash": {"rate": 0.1}})

    def test_negative_rate_is_a_problem(self):
        spec = FailureSpec(crash=CrashSpec(rate_per_epoch=-0.1))
        problems = spec.problems()
        assert any("failures.crash" in p for p in problems)

    def test_negative_retry_limit_is_a_problem(self):
        spec = FailureSpec(retry=RetryPolicy(max_retries=-1))
        assert any("failures.retry" in p for p in spec.problems())

    def test_full_round_trip(self):
        spec = FailureSpec(
            oom_threshold=1.8,
            preemption=PreemptionSpec(rate_per_epoch=0.1),
            churn=ChurnSpec(rate_per_epoch=0.05),
            crash=CrashSpec(rate_per_epoch=0.02),
            straggler=StragglerSpec(fraction=0.2, slowdown=2.0),
            retry=RetryPolicy(max_retries=2),
        )
        assert FailureSpec.from_dict(spec.as_dict()) == spec

    def test_hostile_scenarios_round_trip(self):
        for name in ("spot-market-lenet", "churn-and-crashes", "hostile-storm"):
            scenario = get_definition(name).scenario
            assert Scenario.from_dict(scenario.as_dict()) == scenario

    def test_builder_verbs_compose(self):
        built = (
            Scenario.builder("verbs")
            .workloads("lenet-mnist")
            .inject_oom(threshold=1.8)
            .inject_preemption(rate_per_epoch=0.1)
            .inject_churn(rate_per_epoch=0.05)
            .inject_crashes(rate_per_epoch=0.02)
            .inject_stragglers(fraction=0.1)
            .retry_policy(max_retries=2)
        )
        failures = built._fields["failures"]
        assert failures.oom_threshold == 1.8
        assert failures.preemption.rate_per_epoch == 0.1
        assert failures.churn.rate_per_epoch == 0.05
        assert failures.crash.rate_per_epoch == 0.02
        assert failures.straggler.fraction == 0.1
        assert failures.retry.max_retries == 2


# ---------------------------------------------------------------------------
# Sweeps degrade gracefully
# ---------------------------------------------------------------------------


def _fragile_collect(plan, outcomes):
    if plan.scenario.repetitions == 3:
        raise RuntimeError("variant exploded")
    result = ExperimentResult(exhibit="f", title="fragile", columns=["trials"])
    result.add_row(trials=sum(r.num_trials for r in outcomes))
    return result


@pytest.fixture
def fragile_scenario():
    from repro.scenarios import tune_v1

    name = "fragile-lenet"
    scenario = (
        Scenario.builder(name)
        .workloads("lenet-mnist")
        .algorithm("random", num_samples=4, epochs=3)
        .compare(tune_v1())
        .build()
    )
    register(scenario, collect=_fragile_collect, source="user")
    yield name
    del SCENARIO_REGISTRY[name]


def _crash_when_two(scenario, scale, seed):
    fn = _exit_analysis if scenario.repetitions == 2 else _ok_analysis
    return [AnalysisStep(name=f"reps{scenario.repetitions}", fn=fn)]


@pytest.fixture
def crashing_sweep():
    name = "crash-on-two"
    register(
        Scenario(name=name, kind="analysis"),
        collect=lambda plan, outcomes: outcomes[0],
        plan_fn=_crash_when_two,
        source="user",
    )
    yield Sweep(
        name="crash-on-two", scenario=name, axes=(SweepAxis("repetitions", (1, 2, 3)),)
    )
    del SCENARIO_REGISTRY[name]


class TestSweepDegradation:
    def sweep(self, name):
        return Sweep(
            name="fragility",
            scenario=name,
            axes=(SweepAxis("repetitions", (1, 3, 1)),),
        )

    def test_crashing_variant_yields_partial_results(self, fragile_scenario):
        outcome = run_sweep(self.sweep(fragile_scenario), scale=1.0, seed=0)
        assert len(outcome.outcomes) == 3
        assert len(outcome.failed) == 1
        assert len(outcome.surviving) == 2
        failed = outcome.failed[0]
        assert not failed.ok
        assert failed.error_type == "RuntimeError"
        assert "variant exploded" in failed.error
        for survivor in outcome.surviving:
            assert survivor.result.rows

    def test_crashing_variant_contained_under_pool(self, fragile_scenario):
        outcome = run_sweep(
            self.sweep(fragile_scenario), scale=1.0, seed=0, workers=2
        )
        assert len(outcome.failed) == 1
        assert len(outcome.surviving) == 2

    def test_dead_worker_does_not_hang_the_sweep(self, crashing_sweep):
        # Pooled, one variant's only step kills its worker outright.
        # Guarded by a thread timeout: a pool that never notices the
        # death would block run_sweep forever.
        box = {}

        def run():
            try:
                box["outcome"] = run_sweep(crashing_sweep, seed=0, workers=2)
            except Exception as error:
                box["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "run_sweep hung on a dead worker"
        assert "error" not in box, box.get("error")
        outcome = box["outcome"]
        assert [v.ok for v in outcome.outcomes] == [True, False, True]
        failed = outcome.outcomes[1]
        assert failed.result is None
        assert failed.error_type == "BrokenProcessPool"
        for survivor in outcome.surviving:
            assert survivor.result.rows

    def test_failure_serialises(self, fragile_scenario):
        outcome = run_sweep(self.sweep(fragile_scenario), scale=1.0, seed=0)
        payload = outcome.as_dict()
        flags = [v["ok"] for v in payload["variants"]]
        assert flags.count(False) == 1
        failed = [v for v in payload["variants"] if not v["ok"]][0]
        assert failed["result"] is None
        assert failed["error_type"] == "RuntimeError"
