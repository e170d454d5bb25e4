"""End-to-end tests for the scenario service.

A real :class:`~repro.service.server.ServiceHTTPServer` runs on a
daemon thread (ephemeral port) and a real
:class:`~repro.service.client.ServiceClient` drives it over HTTP —
the full stack the daemon serves in production, including the default
middleware chain. The core contract under test: a scenario submitted
over HTTP returns a result trace byte-identical to the committed
golden render, including under concurrent in-flight jobs.
"""

import contextlib
import io
import json
import os
import tempfile
import threading
import time

import pytest

from repro.experiments import EXHIBIT_RUNS, golden
from repro.scenarios import (
    SCENARIO_REGISTRY,
    SWEEP_REGISTRY,
    Scenario,
    Sweep,
    SweepAxis,
    register,
    register_sweep,
)
from repro.scenarios.runner import AnalysisStep
from repro.service import (
    JobManager,
    JobStates,
    QueueConfig,
    ServerConfig,
    ServiceApp,
    ServiceClient,
    ServiceError,
    serve_background,
)
from removed_vocabulary import REMOVED_VOCABULARY, spec_naming


def quiet_config(**overrides):
    """Default chain minus access_log (keeps pytest stderr readable).

    The rate limiter keeps its default *shape* but gets a deep budget:
    every test in this module shares one tenant bucket, and the
    accumulated `wait()` polling would starve the stock 20-token burst
    long before the later tests run. The stock budget is exercised by
    the dedicated acceptance + backpressure tests below.
    """
    data = {
        "port": 0,
        "middleware": [
            {"kind": "request_id"},
            {"kind": "timing"},
            {"kind": "rate_limit", "capacity": 10_000, "refill_per_s": 10_000},
            {"kind": "quota"},
        ],
    }
    data.update(overrides)
    return ServerConfig.from_dict(data)


@pytest.fixture(scope="module")
def service():
    """One live server for the whole module: (server, client)."""
    config = quiet_config(queue={"workers": 4, "capacity": 32})
    with serve_background(config) as (server, url):
        yield server, ServiceClient(url, tenant="tests")


@contextlib.contextmanager
def held_scenario(name):
    """Register ``name`` as a one-step scenario whose step blocks until
    the yielded event is set, so a test can observe its job unfinished
    (a real exhibit may finish before the next request arrives)."""
    release = threading.Event()

    def hold(scale, seed):
        from repro.scenarios.result import ExperimentResult

        release.wait(timeout=30)
        return ExperimentResult(exhibit="hold", title="hold", columns=["v"])

    def plan_fn(scenario, scale, seed):
        return [AnalysisStep(name="hold", fn=hold)]

    register(
        Scenario.builder(name).kind("analysis").build(),
        plan_fn=plan_fn,
        replace=True,
    )
    try:
        yield name, release
    finally:
        release.set()
        SCENARIO_REGISTRY.pop(name, None)


def committed_trace(name):
    with open(golden.committed_path(name), encoding="utf-8", newline="") as handle:
        return handle.read()


class TestCatalogue:
    def test_health(self, service):
        _, client = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["middleware"] == ["request_id", "timing", "rate_limit", "quota"]

    def test_scenarios_listing_matches_registry(self, service):
        _, client = service
        names = [entry["name"] for entry in client.scenarios()]
        assert names == list(SCENARIO_REGISTRY)

    def test_describe_scenario_includes_plan(self, service):
        _, client = service
        payload = client.describe_scenario("fig11", scale=0.5)
        assert payload["scenario"]["name"] == "fig11"
        assert payload["plan"]["scale"] == 0.5
        assert payload["plan"]["chains"]

    def test_describe_with_hostile_scale_is_400_over_http(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.describe_scenario("fig09", scale=float("nan"))
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ScenarioError"

    def test_sweeps_listing(self, service):
        _, client = service
        names = [entry["name"] for entry in client.sweeps()]
        assert "arrival-rate" in names and "cluster-size" in names

    def test_describe_sweep(self, service):
        _, client = service
        payload = client.describe_sweep("cluster-size")
        assert payload["name"] == "cluster-size"
        assert payload["sweep"]["axes"][0]["path"] == "cluster.nodes"
        with pytest.raises(ServiceError) as excinfo:
            client.describe_sweep("nope")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"

    def test_a_bare_key_error_is_a_500_and_a_cli_traceback(self, monkeypatch):
        # NotFound is a KeyError; a KeyError from a bug is not NotFound.
        from repro.cli import main
        from repro.scenarios import views
        from repro.service.middleware import Request

        def broken():
            raise KeyError("bug")

        monkeypatch.setattr(views, "scenario_catalogue", broken)
        app = ServiceApp(quiet_config())
        try:
            response = app.handle(Request("GET", "/v1/scenarios"))
        finally:
            app.close()
        assert response.status == 500
        assert response.payload["error"]["type"] == "KeyError"
        with pytest.raises(KeyError, match="bug"):
            main(["scenario", "list", "--json"])

    def test_unknown_routes_and_names_are_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.describe_scenario("fig99")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "NotFound"
        with pytest.raises(ServiceError) as excinfo:
            client._call("GET", "/nope")
        assert excinfo.value.status == 404


class TestRouteCoverage:
    def test_every_route_is_reached_by_exactly_one_client_method(self):
        import inspect

        from repro.service.app import ROUTES

        class Recorder(ServiceClient):
            def _call(self, method, path, body=None, query=None):
                self.requests.append((method, path))
                return {}

        def routes_of(method, path):
            parts = path.split("/")
            for verb, pattern, _ in ROUTES:
                segments = pattern.split("/")
                if verb == method and len(segments) == len(parts):
                    if all(s.startswith("{") or s == p for s, p in zip(segments, parts)):
                        yield verb, pattern

        reached = {}
        for name, method in inspect.getmembers(ServiceClient, inspect.isfunction):
            if name.startswith("_") or name == "wait":  # wait polls job()
                continue
            client = Recorder("http://127.0.0.1:9")
            client.requests = []
            required = [
                parameter.name
                for parameter in inspect.signature(method).parameters.values()
                if parameter.default is inspect.Parameter.empty
                and parameter.kind is parameter.POSITIONAL_OR_KEYWORD
            ][1:]
            method(client, *({} if p == "scenario" else "x" for p in required))
            (request,) = client.requests
            (route,) = routes_of(*request)
            reached.setdefault(route, []).append(name)
        assert set(reached) == {(verb, pattern) for verb, pattern, _ in ROUTES}
        assert all(len(names) == 1 for names in reached.values()), reached


class TestGoldenOverHttp:
    def test_submitted_job_trace_is_byte_identical(self, service):
        _, client = service
        run = EXHIBIT_RUNS["fig01"]
        job = client.submit_scenario("fig01", scale=run.scale, seed=run.seed)
        assert job["status"] == JobStates.QUEUED
        finished = client.wait(job["id"], timeout_s=300)
        assert finished["status"] == JobStates.DONE
        payload = client.result(job["id"])
        assert payload["trace"] == committed_trace("fig01")
        assert payload["failures"] == []
        assert payload["result"]["rows"]

    def test_four_concurrent_jobs_all_byte_identical(self):
        # the acceptance bar: byte-identical traces with 4 jobs in
        # flight at once through the *stock* middleware chain — its
        # default rate-limit budget included — on a dedicated server.
        config = ServerConfig.from_dict(
            {"port": 0, "queue": {"workers": 4, "capacity": 32}}
        )
        access_log = io.StringIO()
        config.middleware.middlewares[1].stream = access_log
        with serve_background(config) as (_, url):
            client = ServiceClient(url, tenant="acceptance")
            names = ("fig01", "fig08", "fig09", "fig01")
            jobs = [
                client.submit_scenario(
                    name,
                    scale=EXHIBIT_RUNS[name].scale,
                    seed=EXHIBIT_RUNS[name].seed,
                )
                for name in names
            ]
            for name, job in zip(names, jobs):
                client.wait(job["id"], timeout_s=300)
                payload = client.result(job["id"])
                assert payload["trace"] == committed_trace(name), name
        records = [json.loads(line) for line in access_log.getvalue().splitlines()]
        submissions = [r for r in records if r["path"].endswith("/runs")]
        assert len(submissions) == 4
        assert all(r["tenant"] == "acceptance" for r in records)

    def test_same_scenario_twice_concurrently_is_reentrant(self, service):
        _, client = service
        run = EXHIBIT_RUNS["fig08"]
        first = client.submit_scenario("fig08", scale=run.scale, seed=run.seed)
        second = client.submit_scenario("fig08", scale=run.scale, seed=run.seed)
        traces = []
        for job in (first, second):
            client.wait(job["id"], timeout_s=300)
            traces.append(client.result(job["id"])["trace"])
        assert traces[0] == traces[1] == committed_trace("fig08")

    def test_inline_scenario_submission(self, service):
        _, client = service
        inline = SCENARIO_REGISTRY["fig09"].scenario.as_dict()
        inline["name"] = "inline-fig09"
        job = client.submit_inline(inline, scale=0.3)
        client.wait(job["id"], timeout_s=300)
        payload = client.result(job["id"])
        assert payload["name"] == "inline-fig09"
        assert payload["status"] == JobStates.DONE
        assert payload["result"]["rows"]


class TestJobLifecycle:
    def test_result_before_finish_is_409(self, service):
        _, client = service
        with held_scenario("service-unfinished-probe") as (name, release):
            job = client.submit_scenario(name)
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409
            assert excinfo.value.error_type == "JobNotFinished"
            release.set()
            client.wait(job["id"], timeout_s=300)

    def test_unknown_job_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999")
        assert excinfo.value.status == 404

    def test_bad_run_field_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._call(
                "POST", "/v1/scenarios/fig01/runs", body={"scael": 0.5}
            )
        assert excinfo.value.status == 400
        assert "scael" in excinfo.value.error["message"]

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"scale": None}, "scale"),
            ({"workers": [1]}, "workers"),
            ({"cache": "false"}, "cache"),
            ({"seed": 1.5}, "seed"),
            ({"scale": float("nan")}, "scale"),
            ({"scale": -1}, "scale"),
            ({"workers": 0}, "workers"),
            ({"workers": -3}, "workers"),
            ({"scale": 1e6}, "scale"),
        ],
    )
    def test_malformed_run_field_is_typed_400(self, body, field):
        from repro.service.app import ServiceApp
        from repro.service.middleware import Request

        app = ServiceApp(quiet_config())
        try:
            response = app.handle(
                Request(
                    method="POST",
                    path="/v1/scenarios/fig01/runs",
                    headers={},
                    body=body,
                    query={},
                )
            )
            assert response.status == 400
            assert response.payload["error"]["type"] == "BadRequest"
            assert field in response.payload["error"]["message"]
            assert app.manager.jobs() == []
        finally:
            app.close()

    @pytest.mark.parametrize(
        "query, error_type, message",
        [
            ({"scale": "abc"}, "BadRequest", "bad query parameter"),
            ({"seed": "1.5"}, "BadRequest", "bad query parameter"),
            ({"scale": "nan"}, "ScenarioError", "finite and positive"),
            ({"scale": "inf"}, "ScenarioError", "finite and positive"),
            ({"scale": "-inf"}, "ScenarioError", "finite and positive"),
            ({"scale": "1e308"}, "ScenarioError", "at most 100"),
            ({"scale": "0"}, "ScenarioError", "finite and positive"),
            ({"scale": "-1"}, "ScenarioError", "finite and positive"),
            ({"scale": "abc"}, "BadRequest", "scale must be a number, got 'abc'"),
            ({"seed": "abc"}, "BadRequest", "seed must be an integer, got 'abc'"),
            ({"scale": "1e6"}, "ScenarioError", "at most 100"),
            ({"scale": "100.5"}, "ScenarioError", "at most 100"),
        ],
    )
    def test_malformed_describe_query_is_typed_400(self, query, error_type, message):
        from repro.service.app import ServiceApp
        from repro.service.middleware import Request

        app = ServiceApp(quiet_config())
        try:
            response = app.handle(
                Request(
                    method="GET",
                    path="/v1/scenarios/fig09",
                    headers={},
                    body=None,
                    query=query,
                )
            )
            assert response.status == 400
            assert response.payload["error"]["type"] == error_type
            assert message in response.payload["error"]["message"]
        finally:
            app.close()

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("failures", {"preemption": 5}, "failures.preemption"),
            ("cluster", 5, "cluster"),
            ("systems", [5], "systems[0]"),
            ("workloads", 5, "workloads"),
            ("cluster", {"nodes": "four"}, "cluster.nodes"),
        ],
    )
    def test_wrong_shaped_inline_scenario_is_typed_400(self, field, value, path):
        from repro.service.app import ServiceApp
        from repro.service.middleware import Request

        scenario = SCENARIO_REGISTRY["fig09"].scenario.as_dict()
        scenario["name"] = "hostile-inline"
        scenario[field] = value
        app = ServiceApp(quiet_config())
        try:
            response = app.handle(
                Request(
                    method="POST",
                    path="/v1/runs",
                    headers={},
                    body={"scenario": scenario},
                    query={},
                )
            )
            assert response.status == 400
            assert response.payload["error"]["type"] == "ScenarioError"
            assert f"{path}: expected" in response.payload["error"]["message"]
            assert app.manager.jobs() == []
        finally:
            app.close()

    @pytest.mark.parametrize("field, value", REMOVED_VOCABULARY)
    def test_removed_name_in_an_inline_scenario_is_typed_400(self, field, value):
        from repro.service.app import ServiceApp
        from repro.service.middleware import Request

        app = ServiceApp(quiet_config())
        try:
            response = app.handle(
                Request(
                    method="POST",
                    path="/v1/runs",
                    headers={},
                    body={"scenario": spec_naming(field, value)},
                    query={},
                )
            )
            assert response.status == 400
            assert response.payload["ok"] is False
            assert response.payload["error"]["type"] == "ScenarioError"
            assert repr(value) in response.payload["error"]["message"]
            assert app.manager.jobs() == []
        finally:
            app.close()

    def test_invalid_inline_scenario_is_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_inline({"name": "bad", "oops": 1})
        assert excinfo.value.status == 400

    def test_cache_true_reports_the_resolved_cache_dir(self, tmp_path, monkeypatch):
        # {"cache": true} runs under $REPRO_CACHE_DIR; the job view says
        # where, as the CLI's run view does, instead of null.
        from repro.service.middleware import Request

        cache = str(tmp_path / "env-cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache)
        app = ServiceApp(quiet_config())
        try:
            with held_scenario("service-env-cache") as (name, release):
                response = app.handle(
                    Request("POST", f"/v1/scenarios/{name}/runs", body={"cache": True})
                )
                assert response.status == 202
                view = response.payload["data"]
                expected = {"enabled": True, "dir": cache, "hits": None, "misses": None}
                assert view["cache"] == expected
                release.set()
                job = app.manager.wait(view["id"], timeout_s=60)
                assert job.status == JobStates.DONE
                assert job.as_dict()["cache"] == dict(expected, hits=0, misses=1)
        finally:
            app.close()

    def test_jobs_listing_in_submission_order(self, service):
        _, client = service
        listed = client.jobs()
        ids = [job["id"] for job in listed]
        assert ids == sorted(ids)

    def test_cancel_mid_run_keeps_partial_result(self, service):
        # an ad-hoc scenario whose steps block on an event: cancel
        # lands mid-run deterministically, the finished step survives.
        _, client = service
        release = threading.Event()
        entered = threading.Event()

        def fast(scale, seed):
            # blocks until the test has delivered the cancel, so the
            # executor polls `stop` *after* the event is set and the
            # next step is deterministically skipped.
            from repro.scenarios.result import ExperimentResult

            entered.set()
            release.wait(timeout=30)
            result = ExperimentResult(
                exhibit="cancel-probe", title="partial", columns=["value"]
            )
            result.add_row(value=1)
            return result

        def never(scale, seed):
            raise AssertionError("step ran after cancellation")

        def plan_fn(scenario, scale, seed):
            return [
                AnalysisStep(name="fast", fn=fast),
                AnalysisStep(name="never", fn=never),
            ]

        name = "service-cancel-probe"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            job = client.submit_scenario(name)
            assert entered.wait(timeout=30)
            cancelled = client.cancel(job["id"])
            assert cancelled["status"] in (JobStates.RUNNING, JobStates.CANCELLED)
            release.set()
            finished = client.wait(job["id"], timeout_s=60)
            assert finished["status"] == JobStates.CANCELLED
            payload = client._call("GET", f"/v1/jobs/{job['id']}/result")
            skipped = payload["failures"]
            assert skipped and skipped[-1]["error_type"] == "JobCancelled"
            assert skipped[-1]["skipped"] is True
        finally:
            release.set()
            SCENARIO_REGISTRY.pop(name, None)

    def test_cancel_while_queued_never_runs(self):
        config = quiet_config(queue={"workers": 1, "capacity": 8})
        blocker = threading.Event()
        started = threading.Event()

        def block(scale, seed):
            started.set()
            blocker.wait(timeout=30)
            from repro.scenarios.result import ExperimentResult

            result = ExperimentResult(exhibit="x", title="x", columns=["v"])
            result.add_row(v=0)
            return result

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="block", fn=block)]

        name = "service-queue-blocker"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            with serve_background(config) as (_, url):
                client = ServiceClient(url)
                first = client.submit_scenario(name)
                assert started.wait(timeout=30)
                second = client.submit_scenario("fig01")
                cancelled = client.cancel(second["id"])
                assert cancelled["status"] == JobStates.CANCELLED
                blocker.set()
                client.wait(first["id"], timeout_s=60)
                assert client.job(second["id"])["status"] == JobStates.CANCELLED
        finally:
            blocker.set()
            SCENARIO_REGISTRY.pop(name, None)

    def test_failing_job_reports_structured_error(self, service):
        _, client = service

        def boom(scale, seed):
            raise RuntimeError("service job blew up")

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="boom", fn=boom)]

        name = "service-failing-job"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            job = client.submit_scenario(name)
            finished = client.wait(job["id"], timeout_s=60)
            # the step failure is contained: the job is done-with-
            # failures, not dead, and the server keeps serving.
            assert finished["status"] == JobStates.DONE
            payload = client.result(job["id"])
            assert payload["failures"][0]["error_type"] == "RuntimeError"
            assert "blew up" in payload["failures"][0]["error"]
            assert client.health()["status"] == "ok"
        finally:
            SCENARIO_REGISTRY.pop(name, None)


class TestBackpressure:
    def test_rate_limit_answers_429(self):
        config = quiet_config(
            middleware=[{"kind": "rate_limit", "capacity": 3, "refill_per_s": 0.0}]
        )
        with serve_background(config) as (_, url):
            client = ServiceClient(url, tenant="burst")
            statuses = []
            for _ in range(5):
                try:
                    client.health()
                    statuses.append(200)
                except ServiceError as error:
                    statuses.append(error.status)
                    assert error.error_type == "RateLimited"
            assert statuses == [200, 200, 200, 429, 429]

    def test_quota_blocks_fifth_in_flight_job(self):
        config = quiet_config(
            queue={"workers": 1, "capacity": 16},
            middleware=[{"kind": "quota", "max_in_flight": 4}],
        )
        blocker = threading.Event()

        def block(scale, seed):
            blocker.wait(timeout=30)
            from repro.scenarios.result import ExperimentResult

            result = ExperimentResult(exhibit="x", title="x", columns=["v"])
            result.add_row(v=0)
            return result

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="block", fn=block)]

        name = "service-quota-blocker"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            with serve_background(config) as (_, url):
                client = ServiceClient(url, tenant="greedy")
                jobs = [client.submit_scenario(name) for _ in range(4)]
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_scenario(name)
                assert excinfo.value.status == 429
                assert excinfo.value.error_type == "QuotaExceeded"
                # another tenant still gets in
                other = ServiceClient(url, tenant="patient")
                fifth = other.submit_scenario(name)
                blocker.set()
                for job in jobs + [fifth]:
                    client.wait(job["id"], timeout_s=60)
        finally:
            blocker.set()
            SCENARIO_REGISTRY.pop(name, None)

    def test_full_queue_answers_503(self):
        config = quiet_config(queue={"workers": 1, "capacity": 1})
        blocker = threading.Event()
        started = threading.Event()

        def block(scale, seed):
            started.set()
            blocker.wait(timeout=30)
            from repro.scenarios.result import ExperimentResult

            result = ExperimentResult(exhibit="x", title="x", columns=["v"])
            result.add_row(v=0)
            return result

        def plan_fn(scenario, scale, seed):
            return [AnalysisStep(name="block", fn=block)]

        name = "service-capacity-blocker"
        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )
        try:
            with serve_background(config) as (_, url):
                client = ServiceClient(url)
                running = client.submit_scenario(name)
                assert started.wait(timeout=30)
                queued = client.submit_scenario("fig01")  # fills capacity 1
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_scenario("fig01")
                assert excinfo.value.status == 503
                assert excinfo.value.error_type == "JobQueueFull"
                blocker.set()
                client.wait(running["id"], timeout_s=60)
                client.wait(queued["id"], timeout_s=60)
        finally:
            blocker.set()
            SCENARIO_REGISTRY.pop(name, None)


class TestSweepJobs:
    def test_sweep_submission_end_to_end(self, service):
        _, client = service
        job = client.submit_sweep("cluster-size", scale=0.3)
        assert job["kind"] == "sweep"
        client.wait(job["id"], timeout_s=600)
        payload = client.result(job["id"])
        assert payload["status"] == JobStates.DONE
        variants = payload["result"]["variants"]
        assert [v["name"] for v in variants] == [
            "fig09[cluster.nodes=2]",
            "fig09[cluster.nodes=4]",
            "fig09[cluster.nodes=8]",
        ]
        assert all(v["ok"] for v in variants)

    def test_unknown_sweep_is_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit_sweep("nope")
        assert excinfo.value.status == 404

    def test_cached_sweep_jobs_are_recorded_for_compare(self, service, tmp_path):
        # a cached sweep job saves its run, as `repro sweep run --cache`
        # does, so `sweep compare` finds the daemon's runs.
        from repro.scenarios.cache import SweepRunStore, compare_sweep_runs

        _, client = service
        cache = str(tmp_path / "cache")
        for _ in range(2):
            job = client.submit_sweep("cluster-size", scale=0.3, cache_dir=cache)
            assert client.wait(job["id"], timeout_s=600)["status"] == JobStates.DONE
        result = client.result(job["id"])["result"]
        store = SweepRunStore(cache)
        assert store.runs("cluster-size")[-1] == result["run_id"]
        assert result["cache_dir"] == cache
        comparison = compare_sweep_runs(store, "cluster-size")
        assert comparison["run_b"] == result["run_id"]
        assert comparison["identical"] is True

    def test_cli_and_http_give_the_same_sweep_view(self, service, tmp_path, capsys):
        # a cold cached run on each surface, each into its own cache:
        # the CLI's --json data is the job's result field for field.
        # elapsed_s and the wall-clock run_id are the only fields that
        # may differ.
        from repro.cli import main

        def normal(data, cache):
            if isinstance(data, dict):
                return {
                    key: normal(value, cache)
                    for key, value in data.items()
                    if key not in ("elapsed_s", "run_id")
                }
            if isinstance(data, list):
                return [normal(value, cache) for value in data]
            return "<cache>" if data == cache else data

        _, client = service
        cli_cache, http_cache = str(tmp_path / "cli"), str(tmp_path / "http")
        argv = ["sweep", "run", "cluster-size", "--scale", "0.3", "--json"]
        assert main(argv + ["--cache-dir", cli_cache]) == 0
        cli_view = json.loads(capsys.readouterr().out)["data"]
        job = client.submit_sweep("cluster-size", scale=0.3, cache_dir=http_cache)
        client.wait(job["id"], timeout_s=600)
        http_view = client.result(job["id"])["result"]
        assert http_view.keys() == cli_view.keys()
        assert normal(http_view, http_cache) == normal(cli_view, cli_cache)
        assert http_view["cache"] == {"hits": 0, "misses": 9}


#: flag directory for the pooled-cancel regression test; process
#: environment survives every multiprocessing start method, unlike
#: closures or in-process events.
_POOL_FLAG_ENV = "REPRO_TEST_POOL_CANCEL_DIR"


def _pool_cancel_step(scale, seed):
    """Picklable blocking step: drop a started-marker, then wait for
    the release file (file-system signalling is the only channel that
    reaches pool workers regardless of start method)."""
    from repro.scenarios.result import ExperimentResult

    root = os.environ[_POOL_FLAG_ENV]
    handle, _ = tempfile.mkstemp(prefix="started-", dir=root)
    os.close(handle)
    release = os.path.join(root, "release")
    deadline = time.monotonic() + 60
    while not os.path.exists(release) and time.monotonic() < deadline:
        time.sleep(0.01)
    result = ExperimentResult(exhibit="pool", title="pool", columns=["v"])
    result.add_row(v=1)
    return result


class TestJobLifecycleRaces:
    """Deterministic interleavings for the job-lifecycle races: a
    cancel landing after the last step, a cancel on a terminal job,
    torn status views, and the pool's cancel handling."""

    @staticmethod
    def _result(value=1):
        from repro.scenarios.result import ExperimentResult

        result = ExperimentResult(exhibit="race", title="race", columns=["v"])
        result.add_row(v=value)
        return result

    def _register(self, name, steps):
        def plan_fn(scenario, scale, seed):
            return list(steps)

        register(
            Scenario.builder(name).kind("analysis").build(),
            plan_fn=plan_fn,
            replace=True,
        )

    def test_cancel_landing_after_the_last_step_stays_done(self):
        # The last step itself requests cancellation, so the cancel
        # event is guaranteed set by the time the job commits — yet no
        # step was skipped, so the status must stay DONE. (The racy
        # version re-read the event at commit time and flipped a fully
        # completed job to CANCELLED.)
        manager = JobManager(QueueConfig(workers=1, capacity=4))
        box = {}
        ready = threading.Event()
        name = "race-late-cancel"

        def final(scale, seed):
            assert ready.wait(timeout=30)
            manager.cancel(box["id"])
            return self._result()

        self._register(name, [AnalysisStep(name="final", fn=final)])
        try:
            job = manager.submit_scenario(name)
            box["id"] = job.id
            ready.set()
            manager.wait(job.id, timeout_s=60)
            assert job.status == JobStates.DONE
            assert job.cancel_event.is_set()  # the cancel did land
            assert job.failures == []
        finally:
            manager.close()
            SCENARIO_REGISTRY.pop(name, None)

    def test_cancel_of_terminal_job_is_a_no_op(self):
        manager = JobManager(QueueConfig(workers=1, capacity=4))
        name = "race-terminal-cancel"
        self._register(
            name, [AnalysisStep(name="quick", fn=lambda s, z: self._result())]
        )
        try:
            job = manager.submit_scenario(name)
            manager.wait(job.id, timeout_s=60)
            assert job.status == JobStates.DONE
            finished_at = job.finished_at
            same = manager.cancel(job.id)
            assert same is job
            assert job.status == JobStates.DONE
            assert not job.cancel_event.is_set()
            assert job.finished_at == finished_at
        finally:
            manager.close()
            SCENARIO_REGISTRY.pop(name, None)

    def test_close_cancels_every_job_and_joins_the_workers(self):
        before = set(threading.enumerate())
        manager = JobManager(QueueConfig(workers=2, capacity=4))
        name = "race-close"
        started = threading.Event()

        def step(scale, seed):
            started.set()
            time.sleep(0.05)
            return self._result()

        self._register(name, [AnalysisStep(name=f"s{i}", fn=step) for i in range(100)])
        try:
            jobs = [manager.submit_scenario(name) for _ in range(4)]
            assert started.wait(timeout=30)
            begun = time.monotonic()
            manager.close()
            assert time.monotonic() - begun < 1.0
        finally:
            SCENARIO_REGISTRY.pop(name, None)
        # the running ones stopped at a step, the queued ones never ran
        assert [job.status for job in jobs] == [JobStates.CANCELLED] * 4
        left = [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("repro-job-worker-") and thread not in before
        ]
        assert left == []

    def test_job_views_never_tear(self):
        # Hammer as_dict() from poller threads while jobs run: a view
        # must never pair a terminal status with finished_at=None, or
        # a queued one with started_at set — the torn combinations
        # unsynchronised per-field commits used to allow.
        manager = JobManager(QueueConfig(workers=2, capacity=32))
        name = "race-view-probe"

        def step(scale, seed):
            time.sleep(0.002)
            return self._result()

        self._register(name, [AnalysisStep(name=f"s{i}", fn=step) for i in range(4)])
        torn = []
        stop = threading.Event()

        def poll(job):
            while not stop.is_set():
                view = job.as_dict(include_result=True)
                status = view["status"]
                if status in JobStates.TERMINAL and view["finished_at"] is None:
                    torn.append(("terminal-without-finish", status))
                if status == JobStates.QUEUED and view["started_at"] is not None:
                    torn.append(("queued-but-started", status))
                if view["finished_at"] is not None and view["started_at"] is None:
                    torn.append(("finished-without-start", status))
                if status in JobStates.TERMINAL:
                    return

        try:
            jobs = [manager.submit_scenario(name) for _ in range(6)]
            pollers = [threading.Thread(target=poll, args=(job,)) for job in jobs]
            for thread in pollers:
                thread.start()
            for job in jobs:
                manager.wait(job.id, timeout_s=60)
            stop.set()
            for thread in pollers:
                thread.join(timeout=10)
            assert torn == []
        finally:
            stop.set()
            manager.close()
            SCENARIO_REGISTRY.pop(name, None)

    def test_pooled_cancel_skips_queued_chains(self, tmp_path, monkeypatch):
        # Four one-step chains on a two-worker pool: cancel while the
        # first two block, so the pool's stop poll must cancel the two
        # queued futures. (The racy version never looked at the event:
        # pooled jobs silently ran to completion after a cancel.)
        monkeypatch.setenv(_POOL_FLAG_ENV, str(tmp_path))
        name = "race-pool-cancel"
        self._register(
            name,
            [AnalysisStep(name=f"block-{i}", fn=_pool_cancel_step) for i in range(4)],
        )
        manager = JobManager(QueueConfig(workers=1, capacity=4))
        try:
            job = manager.submit_scenario(name, workers=2)
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("started-*"))) < 2:
                assert time.monotonic() < deadline, "pool workers never started"
                time.sleep(0.01)
            manager.cancel(job.id)
            # give the pool's stop poll (50 ms period) ample time to
            # cancel the queued futures before the blockers release.
            time.sleep(0.5)
            (tmp_path / "release").write_text("go")
            manager.wait(job.id, timeout_s=120)
            assert job.status == JobStates.CANCELLED
            skipped = [f for f in job.failures if f["error_type"] == "JobCancelled"]
            assert len(skipped) == 2
            assert all(f["skipped"] for f in skipped)
            # only the two blocked chains ever started
            assert len(list(tmp_path.glob("started-*"))) == 2
        finally:
            manager.close()
            SCENARIO_REGISTRY.pop(name, None)

    def test_cancel_mid_sweep_keeps_finished_variants(self, service):
        # A running sweep stops at its next chain boundary: the variant
        # whose chain finished keeps its table, the other reports
        # JobCancelled, and the job ends cancelled.
        _, client = service
        name = "race-sweep-block"
        started = threading.Event()
        release = threading.Event()

        def block(scale, seed):
            started.set()
            assert release.wait(timeout=60)
            return self._result()

        self._register(name, [AnalysisStep(name="block", fn=block)])
        register_sweep(
            Sweep(
                name="race-cancellable",
                scenario=name,
                axes=(SweepAxis("cluster.nodes", (1, 2)),),
            ),
            replace=True,
        )
        try:
            job = client.submit_sweep("race-cancellable")
            assert started.wait(timeout=60)
            cancelled = client.cancel(job["id"])
            assert cancelled["status"] == JobStates.RUNNING
            release.set()
            finished = client.wait(job["id"], timeout_s=120)
            assert finished["status"] == JobStates.CANCELLED
            variants = client.result(job["id"])["result"]["variants"]
            assert [v["ok"] for v in variants] == [True, False]
            assert variants[0]["result"] is not None
            assert variants[1]["error_type"] == "JobCancelled"
        finally:
            release.set()
            SWEEP_REGISTRY.pop("race-cancellable", None)
            SCENARIO_REGISTRY.pop(name, None)


class TestJobHistory:
    def test_keeps_the_most_recent_finished_jobs_and_every_live_one(self):
        from repro.scenarios.result import ExperimentResult
        from repro.service.jobs import MAX_FINISHED_JOBS
        from repro.service.middleware import Request

        def instant(scale, seed):
            return ExperimentResult(exhibit="x", title="x", columns=["v"])

        register(
            Scenario.builder("history-instant").kind("analysis").build(),
            plan_fn=lambda scenario, scale, seed: [AnalysisStep("i", instant)],
            replace=True,
        )
        total = MAX_FINISHED_JOBS + 20
        config = ServerConfig.from_dict(
            {"port": 0, "queue": {"workers": 2, "capacity": total}, "middleware": []}
        )
        app = ServiceApp(config)
        manager = app.manager
        try:
            with held_scenario("history-held") as (held_name, release):
                held = manager.submit_scenario(held_name, tenant="held")
                jobs = [
                    manager.submit_scenario("history-instant") for _ in range(total)
                ]
                for job in jobs:
                    manager.wait(job.id, timeout_s=60)
                # the running job outlives every eviction
                assert manager.get(held.id).status == JobStates.RUNNING
                assert manager.in_flight_for("held") == 1
                assert manager.in_flight_for("anonymous") == 0
                release.set()
                manager.wait(held.id, timeout_s=60)
            kept = manager.jobs()
            assert len(kept) == MAX_FINISHED_JOBS
            assert held in kept
            evicted = [job for job in jobs if job not in kept]
            assert len(evicted) == total + 1 - MAX_FINISHED_JOBS
            response = app.handle(Request("GET", f"/v1/jobs/{evicted[0].id}"))
            assert response.status == 404
            assert response.payload["error"]["type"] == "NotFound"
            assert app.handle(Request("GET", f"/v1/jobs/{jobs[-1].id}")).status == 200
            # health counts every job served, not only the kept ones
            health = app.handle(Request("GET", "/v1/health")).payload["data"]
            assert health["jobs"]["done"] == total + 1
            assert health["jobs"]["queued"] == health["jobs"]["running"] == 0
        finally:
            app.close()
            SCENARIO_REGISTRY.pop("history-instant", None)


class TestServerLifecycle:
    def test_request_id_and_timing_headers_round_trip(self, service):
        # raw urllib to look at headers, not just the envelope
        import urllib.request

        server, _ = service
        with urllib.request.urlopen(f"{server.url}/v1/health", timeout=10) as response:
            assert response.headers["X-Request-Id"].startswith("req-")
            assert float(response.headers["X-Elapsed-Ms"]) >= 0.0

    def test_negative_content_length_is_400(self, service):
        # A negative length used to reach rfile.read(-1), which holds
        # the handler thread until the client disconnects; the socket
        # timeout turns that hang into a failure here.
        import socket

        server, _ = service
        host, port = server.server_address[:2]
        request = (
            "POST /v1/jobs HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Length: -1\r\n"
            "Connection: close\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            chunks = []
            while chunk := sock.recv(4096):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        envelope = json.loads(body)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "BadRequest"
        assert "Content-Length" in envelope["error"]["message"]

    def test_oversized_body_is_413_before_reading(self, service):
        # only the headers are sent: the 413 must come back without the
        # server waiting for the 2 MiB it was promised.
        import socket

        server, _ = service
        host, port = server.server_address[:2]
        request = (
            "POST /v1/runs HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {2 << 20}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(request.encode("ascii"))
            chunks = []
            while chunk := sock.recv(4096):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        envelope = json.loads(body)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "PayloadTooLarge"

    def test_short_body_times_out_and_closes(self, monkeypatch):
        import socket

        from repro.service import server as transport

        monkeypatch.setattr(transport, "REQUEST_TIMEOUT_S", 0.5)
        with serve_background(quiet_config()) as (server, _):
            host, port = server.server_address[:2]
            request = (
                "POST /v1/runs HTTP/1.1\r\n"
                f"Host: {host}\r\n"
                "Content-Length: 100\r\n\r\n"
                '{"scale": 1'
            )
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(request.encode("ascii"))
                started = time.monotonic()
                # EOF with no response: the loop gave up on the body
                assert sock.recv(4096) == b""
                assert time.monotonic() - started < 5.0

    def test_keep_alive_requests_do_not_stall(self, service):
        # A client that asks to keep its connection must not wait: each
        # answer is one write carrying Connection: close, and
        # http.client opens a fresh connection for the next request.
        import http.client
        import statistics

        server, _ = service
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        elapsed = []
        try:
            for _ in range(5):
                start = time.perf_counter()
                connection.request("GET", "/v1/scenarios")
                response = connection.getresponse()
                body = response.read()
                elapsed.append(time.perf_counter() - start)
                assert response.status == 200
                assert json.loads(body)["ok"] is True
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_wait_times_out(self, service):
        _, client = service
        with held_scenario("service-wait-probe") as (name, release):
            job = client.submit_scenario(name)
            with pytest.raises(TimeoutError):
                client.wait(job["id"], timeout_s=0.0, poll_s=0.01)
            release.set()
            client.wait(job["id"], timeout_s=300)

    def test_elapsed_is_tracked(self, service):
        _, client = service
        job = client.submit_scenario("fig01", scale=0.3)
        client.wait(job["id"], timeout_s=300)
        status = client.job(job["id"])
        assert status["elapsed_s"] is not None and status["elapsed_s"] >= 0.0
        assert status["finished_at"] >= status["started_at"] >= status["submitted_at"]
        assert time.time() >= status["submitted_at"]
