"""The run options every surface reads: CLI flags, HTTP body, client.

:class:`~repro.scenarios.options.RunOptions` declares scale, seed,
workers and the cache once. These tests pin that the CLI, a raw HTTP
submit body and :class:`~repro.service.client.ServiceClient` read them
the same way, that names travel as quoted path segments, and that a
2xx body which is no JSON is a typed client error.
"""

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.cli import main
from repro.scenarios import SCENARIO_REGISTRY, Scenario, register
from repro.scenarios.options import RunOptions
from repro.scenarios.result import ExperimentResult
from repro.scenarios.runner import AnalysisStep
from repro.service import ServerConfig, ServiceClient, ServiceError, serve_background

#: names that are not plain path segments: a space, a slash, a query
#: mark and a percent sign.
ODD_NAMES = ("with space", "a/b", "x?y", "100%")


@pytest.fixture(scope="module")
def service():
    config = ServerConfig.from_dict(
        {"port": 0, "middleware": [{"kind": "request_id"}], "queue": {"workers": 2}}
    )
    with serve_background(config) as (_, url):
        yield url, ServiceClient(url, tenant="run-options")


def _job(client, body, path="/v1/scenarios/fig01/runs"):
    """Submit a raw body, wait, and return (status view, result)."""
    job = client._call("POST", path, body=body)
    client.wait(job["id"], timeout_s=300, poll_s=0.02)
    return client.job(job["id"]), client.result(job["id"])


class TestRunOptions:
    def test_defaults(self):
        options = RunOptions()
        assert (options.scale, options.seed, options.workers) == (1.0, 0, 1)
        assert options.cache_root is None
        assert options.problems() == []

    def test_int_scale_is_a_float(self):
        assert type(RunOptions(scale=1).scale) is float
        assert type(RunOptions.from_dict({"scale": 1}).scale) is float

    @pytest.mark.parametrize(
        "cache, cache_dir, root",
        [
            (None, None, None),
            (None, "X", "X"),
            (True, "X", "X"),
            (False, "X", None),
            (False, None, None),
        ],
    )
    def test_cache_rule(self, cache, cache_dir, root):
        assert RunOptions(cache=cache, cache_dir=cache_dir).cache_root == root

    def test_cache_without_dir_resolves_the_default_root(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/elsewhere")
        assert RunOptions(cache=True).cache_root == "/elsewhere"

    def test_problems_name_the_field(self):
        problems = RunOptions(scale=1e6, workers=0).problems()
        assert len(problems) == 2
        assert "scale" in problems[0] and "workers" in problems[1]


class TestOneCacheRule:
    """An explicit false wins over a cache directory on every surface."""

    def _cli(self, service, cache_dir, cache):
        argv = ["scenario", "run", "fig01", "--json", "--cache-dir", cache_dir]
        if cache is not None:
            argv.append("--cache" if cache else "--no-cache")
        assert main(argv) == 0

    def _http(self, service, cache_dir, cache):
        _, client = service
        body = {"cache_dir": cache_dir}
        if cache is not None:
            body["cache"] = cache
        view, _ = _job(client, body)
        assert view["cache"]["enabled"] is (cache is not False)

    def _client(self, service, cache_dir, cache):
        _, client = service
        job = client.submit_scenario("fig01", cache=cache, cache_dir=cache_dir)
        view = client.wait(job["id"], timeout_s=300, poll_s=0.02)
        assert view["status"] == "done"
        assert view["cache"]["enabled"] is (cache is not False)

    @pytest.mark.parametrize("surface", ["_cli", "_http", "_client"])
    @pytest.mark.parametrize("cache", [False, None, True])
    def test_explicit_false_wins(self, service, tmp_path, capsys, surface, cache):
        cache_dir = str(tmp_path / "cache")
        getattr(self, surface)(service, cache_dir, cache)
        written = os.path.isdir(cache_dir) and any(os.scandir(cache_dir))
        assert written is (cache is not False)


class TestScaleCoercion:
    def test_int_scale_runs_as_the_float_scale(self, service, tmp_path):
        _, client = service
        cache_dir = str(tmp_path / "cache")
        as_int, int_result = _job(client, {"scale": 1, "cache_dir": cache_dir})
        as_float, float_result = _job(client, {"scale": 1.0, "cache_dir": cache_dir})
        assert type(as_int["scale"]) is float and as_int["scale"] == 1.0
        assert int_result["trace"] == float_result["trace"]
        # the float run reads every chain the int run stored
        assert as_float["cache"]["misses"] == 0
        assert as_float["cache"]["hits"] == as_int["cache"]["misses"] > 0


class TestQuotedNames:
    @pytest.fixture(scope="class")
    def odd_scenarios(self):
        def plan_fn(scenario, scale, seed):
            def table(scale, seed):
                result = ExperimentResult(
                    exhibit=scenario.name, title=scenario.name, columns=["v"]
                )
                result.add_row(v=1)
                return result

            return [AnalysisStep(name="one", fn=table)]

        for name in ODD_NAMES:
            register(
                Scenario.builder(name).kind("analysis").build(),
                plan_fn=plan_fn,
                replace=True,
            )
        yield
        for name in ODD_NAMES:
            SCENARIO_REGISTRY.pop(name, None)

    @pytest.mark.parametrize("name", ODD_NAMES)
    def test_describe_and_submit_round_trip(self, service, odd_scenarios, name):
        _, client = service
        assert client.describe_scenario(name)["scenario"]["name"] == name
        job = client.submit_scenario(name)
        assert job["name"] == name
        assert client.wait(job["id"], timeout_s=60, poll_s=0.02)["status"] == "done"
        assert client.result(job["id"])["result"]["exhibit"] == name

    def test_unknown_job_id_with_a_space_is_a_typed_404(self, service, capsys):
        url, _ = service
        assert main(["client", "status", "job 1", "--url", url]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "NotFound"
        assert "'job 1'" in envelope["error"]["message"]

    def test_client_describe_sweep(self, service, capsys):
        url, _ = service
        argv = ["client", "describe", "cluster-size", "--sweep", "--url", url]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["name"] == "cluster-size"
        assert data["sweep"]["scenario"] == "fig09"
        assert main(["client", "describe", "no sweep", "--sweep", "--url", url]) == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "NotFound"
        assert "'no sweep'" in envelope["error"]["message"]


class _Html(BaseHTTPRequestHandler):
    def do_GET(self):
        body = b"<html>not the service</html>"
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass


class TestNonJsonBody:
    @pytest.fixture
    def html_url(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _Html)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield "http://127.0.0.1:%d" % server.server_address[1]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_client_raises_bad_envelope(self, html_url):
        with pytest.raises(ServiceError) as excinfo:
            ServiceClient(html_url).health()
        assert excinfo.value.status == 200
        assert excinfo.value.error_type == "BadEnvelope"

    def test_cli_prints_an_envelope(self, html_url, capsys):
        assert main(["client", "health", "--url", html_url]) == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["error"]["type"] == "BadEnvelope"
