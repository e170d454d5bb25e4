"""Tests for the declarative scenario API (repro.scenarios)."""

import dataclasses
import json
import re
import sys
import threading

import pytest

from repro.experiments import EXHIBIT_RUNS, golden
from repro.scenarios import (
    SCENARIO_REGISTRY,
    AlgorithmSpec,
    ChainExecutor,
    ClusterSpec,
    FixedTrialStep,
    JobStep,
    Scenario,
    ScenarioError,
    ScenarioRunner,
    SerialBackend,
    TraceStep,
    fixed_trial,
    get_definition,
    pipetune,
    run_reports,
    run_scenario,
    scenario_names,
    tune_v1,
    tune_v2,
)
from repro.scenarios.options import MAX_SCALE

PAPER_NAMES = [
    "fig01",
    "fig02",
    "fig03",
    "fig05",
    "table2",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
]


# ---------------------------------------------------------------------------
# Registry contents
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_all_paper_exhibits_registered(self):
        assert scenario_names(source="paper") == PAPER_NAMES

    def test_at_least_two_novel_scenarios(self):
        novel = scenario_names(source="novel")
        assert len(novel) >= 2
        assert "asha-distributed-cnn" in novel
        assert "bursty-tenants-oom" in novel

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("fig99")

    def test_registry_holds_runners(self):
        for name, runner in SCENARIO_REGISTRY.items():
            assert isinstance(runner, ScenarioRunner)
            assert runner.scenario.name == name

    def test_registry_entries_are_frozen(self):
        runner = get_definition("fig09")
        with pytest.raises(dataclasses.FrozenInstanceError):
            runner.source = "user"
        assert runner.source == "paper"

    def test_one_registered_runner_serves_concurrent_runs(self):
        """The registry entry holds no run state: two threads running
        fig09 through it at once each render the committed golden."""
        run = EXHIBIT_RUNS["fig09"]
        runner = get_definition("fig09")
        renders = [None, None]

        def render(slot):
            plan = runner.plan(scale=run.scale, seed=run.seed)
            (report,) = run_reports(SerialBackend(), [(runner, plan)])
            renders[slot] = golden.render_result(report.unwrap())

        threads = [threading.Thread(target=render, args=(k,)) for k in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the two runs finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        with open(golden.committed_path("fig09"), encoding="utf-8", newline="") as f:
            expected = f.read()
        assert renders == [expected, expected]


# ---------------------------------------------------------------------------
# Serialisation round-trips (satellite: Scenario <-> dict/JSON)
# ---------------------------------------------------------------------------


class TestSerialisation:
    @pytest.mark.parametrize("name", list(SCENARIO_REGISTRY))
    def test_dict_roundtrip(self, name):
        scenario = SCENARIO_REGISTRY[name].scenario
        assert Scenario.from_dict(scenario.as_dict()) == scenario

    @pytest.mark.parametrize("name", list(SCENARIO_REGISTRY))
    def test_json_roundtrip(self, name):
        scenario = SCENARIO_REGISTRY[name].scenario
        text = scenario.to_json()
        json.loads(text)  # well-formed
        assert Scenario.from_json(text) == scenario

    def test_unknown_field_rejected(self):
        data = SCENARIO_REGISTRY["fig09"].scenario.as_dict()
        data["frobnicate"] = True
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_dict(data)

    def test_policy_normalisation_is_order_independent(self):
        a = tune_v2(space_overrides=(("cores", (2,)),), contention=3.0)
        b = tune_v2(
            space_overrides=[["cores", [2]]], contention=3.0
        )
        assert a == b
        assert AlgorithmSpec("hyperband", (("eta", 3), ("max_epochs", 9))) == (
            AlgorithmSpec("hyperband", {"max_epochs": 9, "eta": 3})
        )


# ---------------------------------------------------------------------------
# Builder/registry equivalence for all 12 paper scenarios (satellite)
# ---------------------------------------------------------------------------


def _analysis_builder(name, exhibit, title, description, workloads):
    return (
        Scenario.builder(name)
        .kind("analysis")
        .exhibit(exhibit)
        .title(title)
        .describe(description)
        .workloads(*workloads)
        .build(validate=False)
    )


def _paper_builders():
    registered = {n: SCENARIO_REGISTRY[n].scenario for n in PAPER_NAMES}
    built = {}
    for name in ("fig01", "fig02", "fig03", "fig08"):
        s = registered[name]
        built[name] = _analysis_builder(
            name, s.exhibit, s.title, s.description, s.workloads
        )
    built["fig05"] = (
        Scenario.builder("fig05")
        .exhibit("Figure 5")
        .title(registered["fig05"].title)
        .describe(registered["fig05"].description)
        .paper_cluster(distributed=True)
        .workloads("lenet-mnist")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(
            tune_v1(),
            *(
                tune_v2(
                    label=f"tune-v2-{cores}c-{jobs}j",
                    name=f"v2-pinned-{cores}c-{jobs}j",
                    sample_scale=1.0,
                    contention=float(jobs),
                    space_overrides=(("cores", (cores,)),),
                )
                for cores in (1, 2, 4, 8)
                for jobs in (2, 3, 4)
            ),
        )
        .repetitions(2)
        .build()
    )
    built["table2"] = (
        Scenario.builder("table2")
        .exhibit("Table 2")
        .title(registered["table2"].title)
        .describe(registered["table2"].description)
        .paper_cluster(distributed=True)
        .workloads("lenet-mnist")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(
            fixed_trial(
                hyper={
                    "batch_size": 64,
                    "dropout": 0.45,
                    "learning_rate": 0.03,
                    "epochs": 18,
                },
                system={"cores": 8, "memory_gb": 32.0},
                label="Arbitrary",
                name="arbitrary",
            ),
            tune_v1(label="Tune V1"),
            tune_v2(label="Tune V2"),
            pipetune(label="PipeTune"),
        )
        .repetitions(3)
        .build()
    )
    for name in ("fig09", "fig10"):
        built[name] = (
            Scenario.builder(name)
            .exhibit(registered[name].exhibit)
            .title(registered[name].title)
            .describe(registered[name].description)
            .paper_cluster(distributed=True)
            .workloads("cnn-news20")
            .algorithm("hyperband", max_epochs=9, eta=3)
            .compare(pipetune(), tune_v1(), tune_v2())
            .repetitions(1)
            .build()
        )
    built["fig11"] = (
        Scenario.builder("fig11")
        .exhibit("Figure 11")
        .title(registered["fig11"].title)
        .describe(registered["fig11"].description)
        .paper_cluster(distributed=True)
        .workloads_of_type("I", "II")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(tune_v1(), tune_v2(), pipetune())
        .repetitions(3)
        .build()
    )
    built["fig12"] = (
        Scenario.builder("fig12")
        .exhibit("Figure 12")
        .title(registered["fig12"].title)
        .describe(registered["fig12"].description)
        .paper_cluster(distributed=False)
        .workloads_of_type("III")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(tune_v1(), tune_v2(), pipetune())
        .repetitions(3)
        .max_concurrent_trials(2)
        .build()
    )
    built["fig13"] = (
        Scenario.builder("fig13")
        .exhibit("Figure 13")
        .title(registered["fig13"].title)
        .describe(registered["fig13"].description)
        .paper_cluster(distributed=True)
        .workloads_of_type("I", "II")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(tune_v1(), tune_v2(), pipetune())
        .multi_tenant(
            num_jobs=12,
            mean_interarrival_s=1200.0,
            unseen_fraction=0.2,
            max_concurrent_jobs=2,
            min_jobs=4,
        )
        .build()
    )
    built["fig14"] = (
        Scenario.builder("fig14")
        .exhibit("Figure 14")
        .title(registered["fig14"].title)
        .describe(registered["fig14"].description)
        .paper_cluster(distributed=False)
        .workloads_of_type("III")
        .algorithm("hyperband", max_epochs=9, eta=3)
        .compare(tune_v1(), tune_v2(), pipetune())
        .multi_tenant(
            num_jobs=12,
            mean_interarrival_s=400.0,
            unseen_fraction=0.2,
            max_concurrent_jobs=1,
            min_jobs=4,
        )
        .max_concurrent_trials(2)
        .build()
    )
    return built


class TestBuilderRegistryEquivalence:
    @pytest.mark.parametrize("name", PAPER_NAMES)
    def test_builder_reproduces_registry_scenario(self, name):
        assert _paper_builders()[name] == SCENARIO_REGISTRY[name].scenario


# ---------------------------------------------------------------------------
# Validation errors (satellite)
# ---------------------------------------------------------------------------


class TestValidation:
    def base_builder(self):
        return (
            Scenario.builder("probe")
            .workloads("lenet-mnist")
            .compare(tune_v1())
        )

    def test_unknown_workload(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            self.base_builder().workloads("resnet-imagenet").build()

    def test_cluster_too_small_for_v2_system_space(self):
        with pytest.raises(ScenarioError, match="cluster too small"):
            (
                Scenario.builder("probe")
                .cluster(nodes=1, cores_per_node=2, memory_gb_per_node=2.0)
                .workloads("lenet-mnist")
                .compare(tune_v2())
                .build()
            )

    def test_cluster_too_small_for_fixed_trial(self):
        with pytest.raises(ScenarioError, match="cluster too small"):
            (
                Scenario.builder("probe")
                .paper_cluster(distributed=False)  # 8 cores / 24 GB
                .workloads("lenet-mnist")
                .compare(
                    fixed_trial(
                        hyper={"batch_size": 64},
                        system={"cores": 16, "memory_gb": 64.0},
                    )
                )
                .build()
            )

    def test_unknown_algorithm(self):
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            self.base_builder().algorithm("simulated-annealing").build()

    def test_bad_algorithm_params(self):
        with pytest.raises(ScenarioError, match="rejected its params"):
            self.base_builder().algorithm("hyperband", max_epochs=0).build()

    def test_duplicate_policy_labels(self):
        with pytest.raises(ScenarioError, match="duplicate system labels"):
            self.base_builder().compare(tune_v1(), tune_v1()).build()

    def test_space_override_outside_policy_space(self):
        # v1 searches hyperparameters only; cores is a v2 dimension.
        with pytest.raises(ScenarioError, match="not a v1 search dimension"):
            self.base_builder().compare(
                tune_v1(space_overrides=(("cores", (4,)),))
            ).build()

    def test_pipetune_objective_is_fixed(self):
        with pytest.raises(ScenarioError, match="accuracy objective"):
            self.base_builder().compare(
                pipetune(objective="accuracy_per_time")
            ).build()

    def test_shared_tenancy_rejects_fixed_policies(self):
        with pytest.raises(ScenarioError, match="fixed policies"):
            (
                self.base_builder()
                .compare(
                    fixed_trial(
                        hyper={"batch_size": 64},
                        system={"cores": 4, "memory_gb": 4.0},
                    )
                )
                .multi_tenant()
                .build()
            )

    def test_shared_tenancy_rejects_repetitions(self):
        with pytest.raises(ScenarioError, match="one arrival trace per policy"):
            self.base_builder().multi_tenant().repetitions(3).build()

    def test_non_hyperband_rejects_implicit_sample_scale(self):
        # tune_v2's derived 1.5x sample scale only means something to
        # hyperband; other algorithms must opt out explicitly.
        with pytest.raises(ScenarioError, match="sample_scale only applies"):
            (
                self.base_builder()
                .algorithm("asha", max_epochs=9, eta=3)
                .compare(tune_v2())
                .build()
            )
        scenario = (
            self.base_builder()
            .algorithm("asha", max_epochs=9, eta=3)
            .compare(tune_v2(sample_scale=1.0))
            .build()
        )
        assert scenario.algorithm.name == "asha"

    def test_space_override_checked_against_every_workload_space(self):
        # embedding_dim exists only in NLP spaces; lenet-mnist's space
        # lacks it, so the override must be rejected.
        with pytest.raises(ScenarioError, match="for every workload"):
            self.base_builder().compare(
                tune_v1(space_overrides=(("embedding_dim", (50,)),))
            ).build()
        # ... while a pure-NLP scenario accepts the same override.
        scenario = (
            Scenario.builder("probe")
            .workloads("cnn-news20")
            .compare(tune_v1(space_overrides=(("embedding_dim", (50,)),)))
            .build()
        )
        assert scenario.systems[0].space_overrides

    def test_bad_repetitions_and_oom(self):
        with pytest.raises(ScenarioError, match="repetitions"):
            self.base_builder().repetitions(0).build()
        with pytest.raises(ScenarioError, match="oom_threshold"):
            self.base_builder().inject_oom(-1.0).build()

    def test_all_problems_reported_at_once(self):
        scenario = Scenario(
            name="broken",
            workloads=("nope",),
            algorithm=AlgorithmSpec(name="nope"),
            systems=(),
            repetitions=0,
        )
        problems = scenario.problems()
        assert len(problems) >= 4
        with pytest.raises(ScenarioError) as excinfo:
            scenario.validate()
        assert excinfo.value.problems == problems


# ---------------------------------------------------------------------------
# Runner phases
# ---------------------------------------------------------------------------


class TestRunnerPhases:
    def test_plan_order_workload_major_then_policy_then_seed(self):
        plan = SCENARIO_REGISTRY["fig11"].plan(scale=1.0, seed=5)
        assert plan.seeds == (5, 6, 7)
        steps = plan.steps
        assert len(steps) == 4 * 3 * 3
        assert all(isinstance(s, JobStep) for s in steps)
        assert [s.workload.name for s in steps[:9]] == ["lenet-mnist"] * 9
        assert [s.policy.label for s in steps[:9]] == (
            ["tune-v1"] * 3 + ["tune-v2"] * 3 + ["pipetune"] * 3
        )
        assert [s.seed for s in steps[:3]] == [5, 6, 7]

    def test_plan_shared_tenancy_scales_jobs(self):
        plan = SCENARIO_REGISTRY["fig13"].plan(scale=0.5, seed=0)
        assert all(isinstance(s, TraceStep) for s in plan.steps)
        assert [s.num_jobs for s in plan.steps] == [6, 6, 6]
        floor = SCENARIO_REGISTRY["fig13"].plan(scale=0.01, seed=0)
        assert floor.steps[0].num_jobs == 4  # min_jobs floor

    def test_plan_mixes_fixed_and_job_steps(self):
        plan = SCENARIO_REGISTRY["table2"].plan(scale=0.34, seed=0)
        kinds = [type(s).__name__ for s in plan.steps]
        assert kinds == ["FixedTrialStep", "JobStep", "JobStep", "JobStep"]
        assert isinstance(plan.steps[0], FixedTrialStep)

    def test_plan_scale_bound_is_inclusive(self):
        runner = SCENARIO_REGISTRY["fig09"]
        assert runner.plan(scale=MAX_SCALE).scale == MAX_SCALE
        with pytest.raises(ScenarioError, match="at most 100"):
            runner.plan(scale=MAX_SCALE * 1.01)

    def test_validate_rejects_analysis_without_plan(self):
        runner = ScenarioRunner(
            Scenario(name="bare-analysis", kind="analysis")
        )
        with pytest.raises(ScenarioError, match="plan function"):
            runner.validate()

    def test_pipetune_sessions_shared_across_dedicated_steps(self):
        scenario = (
            Scenario.builder("session-sharing")
            .workloads("lenet-mnist", "lenet-fashion")
            .compare(pipetune())
            .build()
        )
        plan = ScenarioRunner(scenario).plan(scale=1.0, seed=0)
        executor = ChainExecutor(scenario, plan.scale, plan.seed)
        for chain in plan.chains():
            executor.run_chain(chain)
        assert len(executor.sessions) == 1
        (session,) = executor.sessions.values()
        # both workloads' trials went through the one session
        assert session.stats.trials > 0

    def test_end_to_end_custom_scenario_default_collector(self):
        scenario = (
            Scenario.builder("custom-smoke")
            .title("custom smoke")
            .workloads("lenet-mnist")
            .algorithm("random", num_samples=3, epochs=2)
            .compare(tune_v1(), pipetune(warm_start="none"))
            .build()
        )
        result = ScenarioRunner(scenario).run(scale=1.0, seed=0)
        assert result.exhibit == "custom-smoke"
        assert [row["system"] for row in result.rows] == ["tune-v1", "pipetune"]
        assert all(0 <= row["accuracy_pct"] <= 100 for row in result.rows)

    def test_failure_injection_reaches_job_specs(self):
        scenario = (
            Scenario.builder("oom-probe")
            .workloads("cnn-news20")
            .compare(tune_v2())
            .inject_oom(threshold=1.8)
            .build()
        )
        from repro.scenarios import build_job_spec
        from repro.workloads.registry import CNN_NEWS20

        spec = build_job_spec(scenario, scenario.systems[0], CNN_NEWS20, seed=0)
        assert spec.oom_threshold == 1.8


# ---------------------------------------------------------------------------
# Novel scenarios run green (fast smoke; CI runs them via the CLI too)
# ---------------------------------------------------------------------------


class TestNovelScenarios:
    def test_asha_distributed_cnn(self):
        result = run_scenario("asha-distributed-cnn", scale=1.0, seed=0)
        assert [row["system"] for row in result.rows] == ["tune-v1", "pipetune"]
        assert all(row["tuning_time_s"] > 0 for row in result.rows)

    def test_bursty_tenants_oom(self):
        result = run_scenario("bursty-tenants-oom", scale=0.4, seed=0)
        systems = [row["system"] for row in result.rows]
        assert systems == ["tune-v1", "tune-v2", "pipetune"]
        by_system = {row["system"]: row for row in result.rows}
        # OOM injection bites the memory-gambling V2 baseline.
        assert by_system["tune-v2"]["failed_trials"] > 0
        assert all(row["response_s"] > 0 for row in result.rows)


class TestStrictSpecSchemas:
    """Every nested spec now rejects unknown keys by name (SCHEMA001)."""

    def test_cluster_spec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match=r"unknown cluster field.*nodez"):
            ClusterSpec.from_dict({"nodez": 4})

    def test_algorithm_spec_rejects_unknown_keys(self):
        # Before SCHEMA001 this key was *silently dropped*.
        with pytest.raises(ValueError, match=r"unknown algorithm field.*parms"):
            AlgorithmSpec.from_dict({"name": "asha", "parms": {"eta": 3}})

    def test_system_policy_spec_rejects_unknown_keys(self):
        from repro.scenarios import SystemPolicySpec

        with pytest.raises(
            ValueError, match=r"unknown system policy field.*contentn"
        ):
            SystemPolicySpec.from_dict({"kind": "v1", "contentn": 2.0})

    def test_tenancy_spec_rejects_unknown_keys(self):
        from repro.scenarios import TenancySpec

        with pytest.raises(ValueError, match=r"unknown tenancy field.*modee"):
            TenancySpec.from_dict({"modee": "shared"})

    def test_nested_specs_expose_problems(self):
        from repro.scenarios import SystemPolicySpec, TenancySpec

        assert ClusterSpec().problems() == []
        assert AlgorithmSpec(name="nope").problems() != []
        assert SystemPolicySpec(kind="v1").problems() == []
        bad = SystemPolicySpec(kind="v1", warm_start="nope", contention=0.5)
        issues = bad.problems("policy 'p'")
        assert any("warm_start" in issue for issue in issues)
        assert any("contention" in issue for issue in issues)
        shared = TenancySpec(mode="shared", mean_interarrival_s=0.0)
        assert any("mean_interarrival_s" in p for p in shared.problems())

    def test_algorithm_round_trip_still_canonicalises_params(self):
        spec = AlgorithmSpec.from_dict(
            {"name": "hyperband", "params": {"max_epochs": 9, "eta": 3}}
        )
        assert spec.params == (("eta", 3), ("max_epochs", 9))
        assert AlgorithmSpec.from_dict(spec.as_dict()) == spec

    def test_sweep_axis_problems_and_joined_raise(self):
        from repro.scenarios.sweep import SweepAxis

        axis = SweepAxis("cluster.nodes", (1, 2, 4))
        assert axis.problems() == []
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("cluster.nodes", ())


#: wrong-shaped inline payloads: (top-level field, value, dotted path the
#: error must name).
HOSTILE_SCENARIO_FIELDS = [
    ("failures", {"preemption": 5}, "failures.preemption"),
    ("failures", {"retry": [2]}, "failures.retry"),
    ("cluster", 5, "cluster"),
    ("systems", [5], "systems[0]"),
    ("systems", 5, "systems"),
    ("workloads", 5, "workloads"),
    ("algorithm", {"name": "asha", "params": [3]}, "algorithm.params"),
    (
        "systems",
        [{"kind": "v1", "space_overrides": {"batch_size": 64}}],
        "systems[0].space_overrides.batch_size",
    ),
    # wrong-typed scalars: a type check, never a bare TypeError later
    ("cluster", {"nodes": "four"}, "cluster.nodes"),
    ("cluster", {"nodes": True}, "cluster.nodes"),
    ("cluster", {"nodes": 4.0}, "cluster.nodes"),
    ("cluster", {"memory_gb_per_node": "32"}, "cluster.memory_gb_per_node"),
    ("repetitions", "2", "repetitions"),
    ("tenancy", {"num_jobs": 2.5}, "tenancy.num_jobs"),
    ("failures", {"oom_threshold": "high"}, "failures.oom_threshold"),
    ("failures", {"crash": {"rate_per_epoch": False}}, "failures.crash.rate_per_epoch"),
    ("systems", [{"kind": 5}], "systems[0].kind"),
    ("systems", [{"kind": "pipetune", "warm_start": 5}], "systems[0].warm_start"),
    ("workloads", ["lenet-mnist", 5], "workloads[1]"),
]


def hostile_scenario(field, value):
    data = SCENARIO_REGISTRY["fig09"].scenario.as_dict()
    data["name"] = "hostile-inline"
    data[field] = value
    return data


class TestWrongShapedSpecs:
    """A value of the wrong shape raises a typed error naming its path."""

    @pytest.mark.parametrize("field, value, path", HOSTILE_SCENARIO_FIELDS)
    def test_scenario_names_the_path(self, field, value, path):
        with pytest.raises(ScenarioError) as excinfo:
            Scenario.from_dict(hostile_scenario(field, value))
        assert f"{path}: expected" in str(excinfo.value)

    @pytest.mark.parametrize(
        "data, path",
        [
            ({"queue": 5}, "queue"),
            ({"queue": [1]}, "queue"),
            ({"middleware": 5}, "middleware"),
            ({"middleware": [5]}, "middleware[0]"),
            ({"port": "8080"}, "port"),
            ({"queue": {"workers": True}}, "queue.workers"),
        ],
    )
    def test_server_config_names_the_path(self, data, path):
        from repro.service import ServerConfig

        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: expected"):
            ServerConfig.from_dict(data)

    @pytest.mark.parametrize(
        "axes, path",
        [
            ([5], "axes[0]"),
            (5, "axes"),
            ([{"path": "cluster.nodes", "values": 2}], "axes[0].values"),
            ([{"path": 5, "values": [1]}], "axes[0].path"),
            (
                [{"path": "cluster.nodes", "values": [1], "labels": [1]}],
                "axes[0].labels[0]",
            ),
        ],
    )
    def test_sweep_names_the_path(self, axes, path):
        from repro.scenarios import Sweep

        data = {"name": "hostile", "scenario": "fig09", "axes": axes}
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: expected"):
            Sweep.from_dict(data)

    def test_spec_names_a_wrong_typed_field(self):
        with pytest.raises(ValueError, match=r"^nodes: expected an integer, got str"):
            ClusterSpec.from_dict({"nodes": "four"})
        with pytest.raises(ValueError, match=r"^nodes: expected an integer, got bool"):
            ClusterSpec.from_dict({"nodes": True})

    def test_optional_and_bool_hints_are_checked(self):
        from dataclasses import dataclass
        from typing import Optional

        from repro.schema import Malformed, decode

        @dataclass
        class Probe:
            count: Optional[int] = None
            enabled: bool = False

        probe = decode(Probe, {"count": None, "enabled": True}, "probe")
        assert probe == Probe(None, True)
        with pytest.raises(Malformed, match=r"^count: expected an integer, got str"):
            decode(Probe, {"count": "3"}, "probe")
        with pytest.raises(Malformed, match=r"^enabled: expected a boolean, got int"):
            decode(Probe, {"enabled": 1}, "probe")


def test_an_int_passes_for_a_float_unconverted():
    spec = ClusterSpec.from_dict({"memory_gb_per_node": 32})
    assert type(spec.memory_gb_per_node) is int
    assert repr(spec) == repr(ClusterSpec(memory_gb_per_node=32))
