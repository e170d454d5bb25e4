"""The sweep subsystem: expansion, validation, execution, registry."""

import functools

import pytest

from repro.scenarios import (
    SCENARIO_REGISTRY,
    SWEEP_REGISTRY,
    CacheStats,
    Scenario,
    ScenarioRunner,
    Sweep,
    SweepAxis,
    SweepError,
    get_sweep,
    partition,
    register,
    register_sweep,
    run_sweep,
)
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep
from repro.scenarios.sweep import apply_overrides, set_override


class TestSweepAxis:
    def test_labels_default_to_formatted_values(self):
        axis = SweepAxis("cluster.nodes", (2, 4, 8))
        assert axis.labels == ("2", "4", "8")
        assert SweepAxis("x", (1.5,)).labels == ("1.5",)

    def test_rejects_empty_values_and_label_mismatch(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("cluster.nodes", ())
        with pytest.raises(ValueError, match="one label per value"):
            SweepAxis("cluster.nodes", (2, 4), labels=("two",))

    def test_round_trips_through_dict(self):
        axis = SweepAxis("algorithm", ({"name": "asha"},), labels=("asha",))
        assert SweepAxis.from_dict(axis.as_dict()) == axis


class TestOverrides:
    def test_set_override_nested_path(self):
        scenario = SCENARIO_REGISTRY["fig13"].scenario
        data = scenario.as_dict()
        set_override(data, "tenancy.mean_interarrival_s", 600.0)
        assert data["tenancy"]["mean_interarrival_s"] == 600.0

    def test_set_override_rejects_unknown_paths(self):
        data = SCENARIO_REGISTRY["fig13"].scenario.as_dict()
        with pytest.raises(KeyError, match="no field 'typo'"):
            set_override(data, "tenancy.typo", 1)
        with pytest.raises(KeyError, match="no field 'nope'"):
            set_override(data, "nope.anything", 1)

    def test_apply_overrides_builds_named_variant(self):
        base = SCENARIO_REGISTRY["fig09"].scenario
        variant = apply_overrides(base, (("cluster.nodes", 8),), name="fig09[nodes=8]")
        assert variant.name == "fig09[nodes=8]"
        assert variant.cluster.nodes == 8
        # everything else untouched
        assert variant.workloads == base.workloads
        assert variant.systems == base.systems
        assert base.cluster.nodes == 4  # the base is never mutated


class TestSweepModel:
    def test_grid_expansion_row_major(self):
        sweep = Sweep(
            name="grid",
            scenario="fig13",
            axes=(
                SweepAxis("tenancy.mean_interarrival_s", (1200.0, 600.0)),
                SweepAxis("tenancy.max_concurrent_jobs", (2, 4)),
            ),
        )
        assert sweep.grid_size == 4
        variants = sweep.variants()
        assert [v.name for v in variants] == [
            "fig13[tenancy.mean_interarrival_s=1200,tenancy.max_concurrent_jobs=2]",
            "fig13[tenancy.mean_interarrival_s=1200,tenancy.max_concurrent_jobs=4]",
            "fig13[tenancy.mean_interarrival_s=600,tenancy.max_concurrent_jobs=2]",
            "fig13[tenancy.mean_interarrival_s=600,tenancy.max_concurrent_jobs=4]",
        ]
        assert variants[2].scenario.tenancy.mean_interarrival_s == 600.0
        assert variants[2].scenario.tenancy.max_concurrent_jobs == 2

    def test_problems_unknown_scenario(self):
        sweep = Sweep(
            name="bad", scenario="fig99", axes=(SweepAxis("cluster.nodes", (2,)),)
        )
        assert any("unknown scenario" in p for p in sweep.problems())
        with pytest.raises(SweepError, match="fig99"):
            sweep.validate()

    def test_problems_bad_axis_path(self):
        sweep = Sweep(
            name="bad-path",
            scenario="fig09",
            axes=(SweepAxis("cluster.gpus", (1,)),),
        )
        assert any("no field 'gpus'" in p for p in sweep.problems())

    def test_problems_invalid_variant(self):
        sweep = Sweep(
            name="bad-variant",
            scenario="fig13",
            axes=(SweepAxis("tenancy.max_concurrent_jobs", (0,)),),
        )
        assert any("max_concurrent_jobs" in p for p in sweep.problems())

    def test_problems_duplicate_axes_and_no_axes(self):
        sweep = Sweep(
            name="dupes",
            scenario="fig09",
            axes=(
                SweepAxis("cluster.nodes", (2,)),
                SweepAxis("cluster.nodes", (4,)),
            ),
        )
        assert any("duplicate axis paths" in p for p in sweep.problems())
        empty = Sweep(name="empty", scenario="fig09", axes=())
        assert any("at least one axis" in p for p in empty.problems())

    def test_variants_raise_naming_every_problem(self):
        sweep = Sweep(
            name="two-bad",
            scenario="fig13",
            axes=(SweepAxis("tenancy.max_concurrent_jobs", (0, -1)),),
        )
        with pytest.raises(SweepError) as raised:
            sweep.variants()
        assert raised.value.problems == sweep.problems()
        assert len(raised.value.problems) == 2

    def test_round_trips_through_dict(self):
        sweep = SWEEP_REGISTRY["arrival-rate"]
        assert Sweep.from_dict(sweep.as_dict()) == sweep


class TestSweepRegistry:
    def test_builtin_sweeps_are_valid(self):
        assert set(SWEEP_REGISTRY) >= {
            "arrival-rate",
            "cluster-size",
            "algorithm-matrix",
        }
        for sweep in SWEEP_REGISTRY.values():
            assert sweep.problems() == []
            assert sweep.scenario in SCENARIO_REGISTRY

    def test_duplicate_registration_rejected(self):
        sweep = SWEEP_REGISTRY["cluster-size"]
        with pytest.raises(ValueError, match="already registered"):
            register_sweep(sweep)

    def test_get_sweep_unknown(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            get_sweep("nope")


class TestRunSweep:
    def test_serial_equals_pooled(self):
        serial = run_sweep("cluster-size", scale=0.3, seed=0)
        pooled = run_sweep("cluster-size", scale=0.3, seed=0, workers=3)
        assert [o.name for o in serial.outcomes] == [o.name for o in pooled.outcomes]
        for a, b in zip(serial.outcomes, pooled.outcomes):
            assert a.result.format_table() == b.result.format_table()
        assert serial.workers == 1 and pooled.workers == 3

    def test_variants_keep_base_collector(self):
        """fig13's custom collector (per-type response columns) must
        survive into the variants."""
        outcome = run_sweep(
            Sweep(
                name="one-cell",
                scenario="fig13",
                axes=(SweepAxis("tenancy.mean_interarrival_s", (1200.0,)),),
            ),
            scale=0.3,
            seed=0,
        )
        (variant,) = outcome.outcomes
        assert variant.result.exhibit == "Figure 13"
        assert "type_I_s" in variant.result.columns

    def test_as_dict_shape(self):
        outcome = run_sweep(
            Sweep(
                name="tiny",
                scenario="fig09",
                axes=(SweepAxis("cluster.nodes", (2,)),),
            ),
            scale=0.3,
            seed=0,
        )
        payload = outcome.as_dict()
        assert payload["sweep"]["name"] == "tiny"
        assert payload["scale"] == 0.3
        (variant,) = payload["variants"]
        assert variant["name"] == "fig09[cluster.nodes=2]"
        assert variant["overrides"] == {"cluster.nodes": 2}
        assert variant["result"]["rows"]

    def test_each_variant_is_built_once(self, monkeypatch):
        """run_sweep runs the variants that validation built; it does
        not rebuild them from the overrides."""
        built = []

        def counting_apply_overrides(base, overrides, name):
            built.append(name)
            return apply_overrides(base, overrides, name=name)

        monkeypatch.setattr(
            "repro.scenarios.sweep.apply_overrides", counting_apply_overrides
        )
        outcome = run_sweep(
            Sweep(
                name="two-cells",
                scenario="fig09",
                axes=(SweepAxis("cluster.nodes", (2, 4)),),
            ),
            scale=0.3,
            seed=0,
        )
        assert built == [variant.name for variant in outcome.outcomes]
        assert all(variant.ok for variant in outcome.outcomes)

    def test_invalid_sweep_refused(self):
        with pytest.raises(SweepError):
            run_sweep(
                Sweep(
                    name="broken",
                    scenario="fig99",
                    axes=(SweepAxis("cluster.nodes", (2,)),),
                )
            )


# ---------------------------------------------------------------------------
# Serial sweeps hold one variant's outcomes at a time
# ---------------------------------------------------------------------------

#: (event, variant, ...) in the order the sweep produced them.
_EVENTS = []


def _recorded_step(variant, index, scale, seed):
    _EVENTS.append(("step", variant, index))
    result = ExperimentResult(exhibit="e", title="e", columns=["v"])
    result.add_row(v=index)
    return result


def _recorded_plan(scenario, scale, seed):
    # repetitions + 1 singleton chains, named per variant so their
    # cache keys differ.
    return [
        AnalysisStep(
            name=f"{scenario.name}/step{i}",
            fn=functools.partial(_recorded_step, scenario.name, i),
        )
        for i in range(scenario.repetitions + 1)
    ]


def _recorded_collect(plan, outcomes):
    _EVENTS.append(("collect", plan.scenario.name))
    result = ExperimentResult(exhibit="e", title="e", columns=["steps"])
    result.add_row(steps=len(outcomes))
    return result


class TestSerialSweepMemory:
    @pytest.fixture
    def sweep(self):
        name = "recorded-probe"
        register(
            Scenario(name=name, kind="analysis"),
            collect=_recorded_collect,
            plan_fn=_recorded_plan,
            replace=True,
        )
        _EVENTS.clear()
        yield Sweep(
            name="recorded", scenario=name, axes=(SweepAxis("repetitions", (1, 2)),)
        )
        SCENARIO_REGISTRY.pop(name, None)

    @staticmethod
    def _chain_counts(sweep):
        """variant name -> its plan's chain count."""
        counts = {}
        for variant in sweep.variants():
            plan = ScenarioRunner(variant.scenario, plan_fn=_recorded_plan).plan()
            counts[variant.name] = len(partition(plan))
        return counts

    def test_each_variant_is_collected_before_the_next_runs(self, sweep):
        outcome = run_sweep(sweep, seed=0)
        first, second = (v.name for v in outcome.outcomes)
        collected = _EVENTS.index(("collect", first))
        second_starts = _EVENTS.index(("step", second, 0))
        assert collected < second_starts
        assert _EVENTS[-1] == ("collect", second)

    def test_cache_counts_are_per_variant(self, sweep, tmp_path):
        chains = self._chain_counts(sweep)
        assert sorted(chains.values()) == [2, 3]
        cold = run_sweep(sweep, seed=0, cache_dir=str(tmp_path))
        warm = run_sweep(sweep, seed=0, cache_dir=str(tmp_path))
        for variant in cold.outcomes:
            assert variant.cache_stats == CacheStats(0, chains[variant.name])
        for before, after in zip(cold.outcomes, warm.outcomes):
            assert after.cache_stats == CacheStats(chains[after.name], 0)
            assert after.result.format_table() == before.result.format_table()
