"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from repro.scenarios import SCENARIO_REGISTRY, Scenario, is_failure, register
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep

#: ``repro tune <workload> --system <system> --json`` data objects at
#: seed 0. A change that alters a tuning result on purpose rewrites
#: them with ``REPRO_UPDATE_PINS=1 python -m pytest tests/test_cli.py``.
TUNE_PINS = os.path.join(os.path.dirname(__file__), "data", "tune_views.json")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_run_defaults(self):
        # None means "resolve per exhibit": 1.0/0 when printing,
        # the exhibit's canonical parameters when writing --out.
        args = build_parser().parse_args(["scenario", "run", "fig01"])
        assert args.name == "fig01"
        assert args.scale is None
        assert args.seed is None

    def test_legacy_commands_are_gone(self):
        for argv in (["run", "fig01"], ["list"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "command", [["scenario", "run", "fig01"], ["sweep", "run", "cluster-size"]]
    )
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_rejected(self, command, workers, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + ["--workers", workers])
        assert excinfo.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err

    def test_tune_system_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "lenet-mnist", "--system", "bogus"])


class TestCommands:
    def test_run_single_exhibit(self, capsys):
        assert main(["scenario", "run", "fig01", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_run_unknown_exhibit(self, capsys):
        assert main(["scenario", "run", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_out_written_through_golden_serializer(self, tmp_path, capsys):
        from repro.experiments import golden

        out_dir = str(tmp_path / "tables")
        assert main(["scenario", "run", "fig01", "--out", out_dir]) == 0
        written = (tmp_path / "tables" / "fig01.txt").read_text()
        with open(golden.committed_path("fig01"), encoding="utf-8") as handle:
            assert written == handle.read()

    def test_run_out_defaults_to_canonical_scale(self, tmp_path, capsys):
        # fig05's canonical scale is 0.5, not 1.0: unspecified --scale
        # with --out must resolve to it and reproduce the golden trace.
        from repro.experiments import golden

        out_dir = str(tmp_path / "tables")
        assert main(["scenario", "run", "fig05", "--out", out_dir]) == 0
        written = (tmp_path / "tables" / "fig05.txt").read_text()
        with open(golden.committed_path("fig05"), encoding="utf-8") as handle:
            assert written == handle.read()

    def test_run_out_refuses_non_canonical_params(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tables")
        assert (
            main(["scenario", "run", "fig01", "--scale", "0.5", "--out", out_dir])
            == 2
        )
        err = capsys.readouterr().err
        assert "refusing --out" in err and "--force" in err
        assert not (tmp_path / "tables" / "fig01.txt").exists()

    def test_run_out_force_overrides_with_warning(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tables")
        argv = ["scenario", "run", "fig01", "--scale", "0.5", "--out", out_dir]
        assert main(argv + ["--force"]) == 0
        assert "warning" in capsys.readouterr().err
        assert (tmp_path / "tables" / "fig01.txt").exists()

    def test_tune_v1(self, capsys):
        assert main(["tune", "lenet-mnist", "--system", "v1"]) == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert "tuning time" in out

    def test_tune_pipetune_type3(self, capsys):
        assert main(["tune", "bfs-rodinia", "--system", "pipetune"]) == 0
        out = capsys.readouterr().out
        assert "bfs-rodinia" in out

    def test_tune_unknown_workload(self, capsys):
        assert main(["tune", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestTuneViews:
    """One Type-I and one Type-III workload under every system."""

    @pytest.mark.parametrize("system", ["v1", "v2", "pipetune"])
    @pytest.mark.parametrize("workload", ["lenet-mnist", "bfs-rodinia"])
    def test_tune_json_data_is_pinned(self, workload, system, capsys):
        argv = ["tune", workload, "--system", system, "--seed", "0", "--json"]
        assert main(argv) == 0
        observed = json.loads(capsys.readouterr().out)["data"]
        key = f"{workload}/{system}"
        pins = {}
        if os.path.exists(TUNE_PINS):
            with open(TUNE_PINS, encoding="utf-8") as handle:
                pins = json.load(handle)
        if os.environ.get("REPRO_UPDATE_PINS"):
            pins[key] = observed
            with open(TUNE_PINS, "w", encoding="utf-8") as handle:
                json.dump(pins, handle, indent=1, sort_keys=True)
                handle.write("\n")
            return
        assert key in pins, f"no pinned view {key!r}; see TUNE_PINS"
        expected = pins[key]
        assert observed.keys() == expected.keys()
        for field in expected:
            assert observed[field] == expected[field], f"{key}: {field} differs"


class TestScenarioCommands:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig14" in out
        assert "asha-distributed-cnn" in out and "bursty-tenants-oom" in out

    def test_list_json_schema(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["error"] is None
        entries = envelope["data"]
        assert len(entries) >= 14
        required = {
            "name",
            "source",
            "kind",
            "exhibit",
            "title",
            "description",
            "workloads",
            "systems",
            "algorithm",
            "tenancy",
            "repetitions",
        }
        for entry in entries:
            assert required <= set(entry)
        assert {e["source"] for e in entries} == {"paper", "novel"}

    def test_describe(self, capsys):
        assert main(["scenario", "describe", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "tenancy    : shared" in out
        assert "trace tune-v1" in out

    def test_describe_json_roundtrips_scenario(self, capsys):
        from repro.scenarios import SCENARIO_REGISTRY, Scenario

        assert main(["scenario", "describe", "fig11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["data"]
        restored = Scenario.from_dict(payload["scenario"])
        assert restored == SCENARIO_REGISTRY["fig11"].scenario
        assert payload["plan"]["steps"]

    def test_describe_unknown(self, capsys):
        assert main(["scenario", "describe", "fig99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_json_output(self, capsys):
        assert main(["scenario", "run", "fig01", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True and envelope["error"] is None
        payload = envelope["data"]
        assert payload["scenario"] == "fig01"
        assert payload["failures"] == []
        assert payload["result"]["exhibit"] == "Figure 1"
        assert payload["result"]["rows"]

    def test_run_check_matches_golden(self, capsys):
        assert main(["scenario", "run", "fig01", "--check"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_run_check_requires_golden(self, capsys):
        assert main(["scenario", "run", "asha-distributed-cnn", "--check"]) == 2
        assert "no committed golden trace" in capsys.readouterr().err

    def test_run_novel_scenario_writes_out(self, tmp_path, capsys):
        out_dir = str(tmp_path / "tables")
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "bursty-tenants-oom",
                    "--scale",
                    "0.34",
                    "--out",
                    out_dir,
                ]
            )
            == 0
        )
        assert (tmp_path / "tables" / "bursty-tenants-oom.txt").exists()


def _table_step(scale, seed):
    result = ExperimentResult(exhibit="x", title="x", columns=["v"])
    result.add_row(v=1)
    return result


def _raising_step(scale, seed):
    raise RuntimeError("deliberate step failure")


@pytest.fixture
def failing_scenario():
    """A registered scenario whose second of two steps raises."""
    name = "cli-failing-step"
    register(
        Scenario.builder(name).kind("analysis").build(),
        collect=lambda plan, outcomes: next(o for o in outcomes if not is_failure(o)),
        plan_fn=lambda scenario, scale, seed: [
            AnalysisStep("ok", _table_step),
            AnalysisStep("boom", _raising_step),
        ],
        replace=True,
    )
    try:
        yield name
    finally:
        SCENARIO_REGISTRY.pop(name, None)


class TestFailedStep:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_run_out_exits_1_and_writes_no_trace(
        self, failing_scenario, workers, as_json, tmp_path, capsys
    ):
        out_dir = tmp_path / "tables"
        argv = ["scenario", "run", failing_scenario, "--workers", workers]
        argv += ["--out", str(out_dir)] + (["--json"] if as_json else [])
        assert main(argv) == 1
        assert not out_dir.exists()
        captured = capsys.readouterr()
        if as_json:
            envelope = json.loads(captured.out)
            assert envelope["error"]["type"] == "ChainFailure"
            (failure,) = envelope["data"]["failures"]
            assert failure["step_index"] == 1
            assert failure["error_type"] == "RuntimeError"
        else:
            assert "wrote" not in captured.out
            assert "step 1 (analysis boom): RuntimeError" in captured.err

    def test_check_names_the_failed_step(self, failing_scenario, monkeypatch, capsys):
        monkeypatch.setitem(
            SCENARIO_REGISTRY, "fig01", SCENARIO_REGISTRY[failing_scenario]
        )
        assert main(["scenario", "run", "fig01", "--check"]) == 1
        captured = capsys.readouterr()
        assert "fig01: DIFF" in captured.out
        assert "step 1 (analysis boom): RuntimeError" in captured.err


class TestParallelCli:
    def test_describe_reports_chains(self, capsys):
        assert main(["scenario", "describe", "fig11"]) == 0
        out = capsys.readouterr().out
        assert "chains     :" in out
        assert "shared session" in out
        assert "session chain" in out

    def test_describe_json_chains_tile_the_plan(self, capsys):
        assert main(["scenario", "describe", "fig11", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)["data"]
        chains = payload["plan"]["chains"]
        positions = sorted(i for chain in chains for i in chain["steps"])
        assert positions == list(range(len(payload["plan"]["steps"])))
        assert any(chain["shares_session"] for chain in chains)
        for chain in chains:
            assert len(chain["labels"]) == len(chain["steps"])

    def test_scenario_run_workers_json(self, capsys):
        assert main(["scenario", "run", "fig01", "--json", "--workers", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)["data"]
        assert payload["workers"] == 2
        assert payload["result"]["exhibit"] == "Figure 1"

    def test_scenario_check_with_workers(self, capsys):
        assert main(["scenario", "run", "fig08", "--check", "--workers", "4"]) == 0
        assert "ok" in capsys.readouterr().out


class TestSweepCommands:
    def test_list(self, capsys):
        assert main(["sweep", "list"]) == 0
        out = capsys.readouterr().out
        assert "arrival-rate" in out
        assert "cluster-size" in out
        assert "algorithm-matrix" in out

    def test_list_json_schema(self, capsys):
        assert main(["sweep", "list", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        entries = envelope["data"]
        assert len(entries) >= 3
        required = {"name", "scenario", "title", "description", "axes", "variants"}
        for entry in entries:
            assert required <= set(entry)
            assert entry["variants"] >= 1
            for axis in entry["axes"]:
                assert {"path", "values", "labels"} <= set(axis)

    def test_run_unknown(self, capsys):
        assert main(["sweep", "run", "nope"]) == 2
        assert "unknown sweep" in capsys.readouterr().err

    def test_run_json(self, capsys):
        argv = "sweep run cluster-size --scale 0.3 --workers 2 --json".split()
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["data"]
        assert payload["sweep"]["name"] == "cluster-size"
        assert payload["workers"] == 2
        names = [v["name"] for v in payload["variants"]]
        assert names == [
            "fig09[cluster.nodes=2]",
            "fig09[cluster.nodes=4]",
            "fig09[cluster.nodes=8]",
        ]
        for variant in payload["variants"]:
            assert variant["result"]["rows"]

    def test_run_text_output(self, capsys):
        assert main(["sweep", "run", "cluster-size", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "=== fig09[cluster.nodes=2]" in out
        assert "3 variants" in out


class TestEnvelope:
    """Every subcommand's --json output is the shared envelope."""

    def test_tune_json_envelope(self, capsys):
        assert main(["tune", "lenet-mnist", "--system", "v1", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["data"]["workload"] == "lenet-mnist"
        assert envelope["data"]["trials"] > 0

    def test_json_errors_are_machine_readable(self, capsys):
        # errors under --json land in the envelope on stdout, exit != 0
        assert main(["scenario", "run", "fig99", "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "NotFound"
        assert "fig99" in envelope["error"]["message"]

    @pytest.mark.parametrize("command", ["describe", "run"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "1e308", "0", "-1"])
    def test_hostile_scale_is_an_error_envelope(self, capsys, command, scale):
        assert main(["scenario", command, "fig09", "--scale", scale, "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "ScenarioError"
        assert "scale" in envelope["error"]["message"]

    def test_hostile_scale_without_json_exits_2(self, capsys):
        assert main(["scenario", "describe", "fig09", "--scale", "nan"]) == 2
        assert "scale must be finite and positive" in capsys.readouterr().err

    def test_hostile_sweep_scale_is_an_error_envelope(self, capsys):
        assert main(["sweep", "run", "arrival-rate", "--scale", "inf", "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "SweepError"
        assert "scale" in envelope["error"]["message"]

    def test_json_unknown_sweep_error(self, capsys):
        assert main(["sweep", "run", "nope", "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "NotFound"

    def test_scenario_run_json_reports_chain_failures(self, capsys):
        # satellite fix: a plan containing failing steps must surface
        # them in the envelope (contained, partial table) — not as a
        # traceback — and exit non-zero. spot-market-preemption keeps a
        # plan that completes; use the hostile crash scenario which
        # fails deterministically at tiny scale? Instead register an
        # ad-hoc failing analysis scenario.
        from repro.scenarios import SCENARIO_REGISTRY, Scenario, register
        from repro.scenarios.runner import AnalysisStep

        def boom(scale, seed):
            raise RuntimeError("exploding analysis step")

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="boom", fn=boom)]

        name = "cli-envelope-failing"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            assert main(["scenario", "run", name, "--json"]) == 1
            envelope = json.loads(capsys.readouterr().out)
            assert envelope["ok"] is False
            assert envelope["error"]["type"] == "ChainFailure"
            failures = envelope["data"]["failures"]
            assert len(failures) == 1
            assert failures[0]["error_type"] == "RuntimeError"
            assert "exploding" in failures[0]["error"]
            # the partial result still rides along
            assert envelope["data"]["result"] is not None
        finally:
            SCENARIO_REGISTRY.pop(name, None)


class TestLint:
    def test_lint_clean_tree_exit_zero(self, capsys):
        assert main(["lint"]) == 0
        err = capsys.readouterr().err
        assert "0 findings" in err

    def test_lint_json_envelope_on_clean_tree(self, capsys):
        assert main(["lint", "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is True
        assert envelope["error"] is None
        assert envelope["data"]["findings"] == []
        assert envelope["data"]["suppressed"] >= 7

    def test_lint_unknown_rule_typed_error(self, capsys):
        assert main(["lint", "--rule", "BOGUS", "--json"]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "UnknownRule"
        assert "BOGUS" in envelope["error"]["message"]

    def test_lint_findings_envelope_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "scenarios" / "fixture.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nx = time.time()\n", encoding="utf-8")
        assert main(["lint", "--paths", str(bad), "--json"]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "LintFindings"
        findings = envelope["data"]["findings"]
        assert len(findings) == 1  # importing time is fine; calling time() is not
        assert {f["rule"] for f in findings} == {"DET001"}
        assert findings[-1]["line"] == 2
        assert findings[-1]["path"] == str(bad)

    def test_lint_text_output_renders_locations(self, capsys, tmp_path):
        bad = tmp_path / "fixture.py"
        bad.write_text("import uuid\n", encoding="utf-8")
        assert main(["lint", "--paths", str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}:1:0: DET001" in captured.out
        assert "1 finding" in captured.err

    def test_lint_rule_subset(self, capsys, tmp_path):
        bad = tmp_path / "fixture.py"
        bad.write_text("import uuid\n", encoding="utf-8")
        assert main(["lint", "--paths", str(bad), "--rule", "PKL001"]) == 0
