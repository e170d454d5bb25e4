"""Pinned run views: what a user reads back from one scenario run.

The ``repro scenario run --json`` envelope and the HTTP job view plus
its result are compared field for field against
``tests/data/run_views.json`` in four cases: a clean run, a cold then
warm cached run, a contained failing step, and (over HTTP only; the
CLI has no cancel) a cancelled sweep job. Timing fields
(``elapsed_s``, ``submitted_at``, ``started_at``, ``finished_at``) and
job ids are dropped, and cache directories read ``<cache>``.

A change that alters a view on purpose rewrites the pinned file with
``REPRO_UPDATE_PINS=1 python -m pytest tests/test_run_views.py``.
"""

import json
import os
import threading

import pytest

from repro.cli import main
from repro.scenarios import (
    SCENARIO_REGISTRY,
    SWEEP_REGISTRY,
    Scenario,
    Sweep,
    SweepAxis,
    register,
    register_sweep,
)
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep
from repro.service import ServerConfig, ServiceClient, serve_background

PINS = os.path.join(os.path.dirname(__file__), "data", "run_views.json")
TIMING = frozenset(("elapsed_s", "submitted_at", "started_at", "finished_at"))
#: a dedicated-tenancy exhibit with nine chains: small tables, real caching.
SCENARIO = ("fig11", 0.3)
FAILING = "pin-failing-step"


def _table(value):
    result = ExperimentResult(exhibit="pin", title="pin", columns=["v"])
    result.add_row(v=value)
    return result


def _boom(scale, seed):
    raise RuntimeError("pinned step failure")


@pytest.fixture(scope="module", autouse=True)
def failing_scenario():
    """Two independent steps: one returns a table, one raises."""

    def plan_fn(scenario, scale, seed):
        return [
            AnalysisStep(name="fine", fn=lambda scale, seed: _table(1)),
            AnalysisStep(name="boom", fn=_boom),
        ]

    register(
        Scenario.builder(FAILING).kind("analysis").build(),
        plan_fn=plan_fn,
        replace=True,
    )
    yield
    SCENARIO_REGISTRY.pop(FAILING, None)


@pytest.fixture(scope="module")
def client():
    config = ServerConfig.from_dict(
        {
            "port": 0,
            "queue": {"workers": 1, "capacity": 8},
            "middleware": [{"kind": "request_id"}, {"kind": "timing"}],
        }
    )
    with serve_background(config) as (_, url):
        yield ServiceClient(url, tenant="pins")


def _normal(data, cache_dirs=()):
    """``data`` without timing fields or job ids, cache dirs masked."""
    if isinstance(data, dict):
        return {
            key: _normal(value, cache_dirs)
            for key, value in data.items()
            if key not in TIMING and key != "id"
        }
    if isinstance(data, list):
        return [_normal(value, cache_dirs) for value in data]
    if isinstance(data, str) and data in cache_dirs:
        return "<cache>"
    return data


def _check(key, observed):
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)
    if os.environ.get("REPRO_UPDATE_PINS"):
        pins[key] = observed
        os.makedirs(os.path.dirname(PINS), exist_ok=True)
        with open(PINS, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return
    assert key in pins, f"no pinned view {key!r}; see the module docstring"
    expected = pins[key]
    assert observed.keys() == expected.keys()
    for field in expected:
        assert observed[field] == expected[field], f"{key}: {field} differs"


def _cli(capsys, argv, cache_dirs=()):
    code = main(argv)
    envelope = json.loads(capsys.readouterr().out)
    return {"exit": code, "envelope": _normal(envelope, cache_dirs)}


def _http(client, job, cache_dirs=()):
    view = client.wait(job["id"], timeout_s=120)
    result = client.result(job["id"])
    # the result view is the job view plus its payload
    assert {k: v for k, v in result.items() if k in view} == view
    return _normal(result, cache_dirs)


class TestCli:
    def test_clean_run(self, capsys):
        name, scale = SCENARIO
        argv = ["scenario", "run", name, "--scale", str(scale), "--json"]
        _check("cli/clean", _cli(capsys, argv))

    def test_cold_then_warm_cached_run(self, capsys, tmp_path):
        name, scale = SCENARIO
        cache = str(tmp_path / "cache")
        argv = ["scenario", "run", name, "--scale", str(scale), "--json"]
        argv += ["--cache-dir", cache]
        _check("cli/cold", _cli(capsys, argv, (cache,)))
        _check("cli/warm", _cli(capsys, argv + ["--workers", "2"], (cache,)))

    def test_contained_failing_step(self, capsys):
        _check("cli/failing", _cli(capsys, ["scenario", "run", FAILING, "--json"]))


class TestHttp:
    def test_clean_run(self, client):
        name, scale = SCENARIO
        _check("http/clean", _http(client, client.submit_scenario(name, scale=scale)))

    def test_cold_then_warm_cached_run(self, client, tmp_path):
        name, scale = SCENARIO
        cache = str(tmp_path / "cache")
        cold = client.submit_scenario(name, scale=scale, cache_dir=cache)
        _check("http/cold", _http(client, cold, (cache,)))
        warm = client.submit_scenario(name, scale=scale, workers=2, cache_dir=cache)
        _check("http/warm", _http(client, warm, (cache,)))

    def test_contained_failing_step(self, client):
        _check("http/failing", _http(client, client.submit_scenario(FAILING)))

    def test_cancelled_sweep(self, client):
        # the first variant's step blocks until the cancel is in, so
        # the second variant's chain is skipped as JobCancelled.
        name = "pin-sweep-block"
        started, release = threading.Event(), threading.Event()

        def block(scale, seed):
            started.set()
            assert release.wait(timeout=60)
            return _table(2)

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="block", fn=block)]

        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            collect=lambda plan, outcomes: outcomes[0],
            replace=True,
        )
        register_sweep(
            Sweep(
                name="pin-cancellable",
                scenario=name,
                axes=(SweepAxis("cluster.nodes", (1, 2)),),
            ),
            replace=True,
        )
        try:
            job = client.submit_sweep("pin-cancellable")
            assert started.wait(timeout=60)
            client.cancel(job["id"])
            release.set()
            _check("http/cancelled-sweep", _http(client, job))
        finally:
            release.set()
            SWEEP_REGISTRY.pop("pin-cancellable", None)
            SCENARIO_REGISTRY.pop(name, None)
