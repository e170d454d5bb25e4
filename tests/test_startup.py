"""What a command or the daemon loads at start-up, and lazy exports.

Package ``__init__``s resolve their exports on first use (PEP 562) and
each CLI handler imports the modules it runs, so the CLI, the client
and the daemon's start-up path never load numpy or the simulator. Each
check runs in a fresh interpreter, because this one has long since
imported everything.
"""

import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.cli import WORKLOAD_NAMES, build_parser
from repro.workloads.registry import ALL_WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: what start-up must not load: numpy, and the scenario runner that
#: pulls in the simulator.
HEAVY = ("numpy", "repro.scenarios.runner")


def fresh(code: str, timeout: float = 120.0):
    """Run ``code`` in a fresh interpreter -> the JSON its last line prints."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


#: prints which HEAVY modules the interpreter has loaded.
REPORT = f"""
import json, sys
print(json.dumps([name for name in {HEAVY!r} if name in sys.modules]))
"""

#: the daemon's start-up path, as perfbench and ``repro serve`` take it.
DAEMON = """
import urllib.request
from repro.experiments import EXHIBIT_RUNS, golden
from repro.service import ServiceApp
from repro.service.config import ServerConfig
from repro.service.server import serve_background

assert golden.committed_path("fig09").endswith("fig09.txt")
ServiceApp().close()
config = ServerConfig.from_dict(
    {"host": "127.0.0.1", "port": 0, "queue": {"workers": 2},
     "middleware": [{"kind": "request_id"}, {"kind": "timing"}]}
)
with serve_background(config) as (server, url):
    with urllib.request.urlopen(url + "/v1/health", timeout=30) as response:
        assert response.status == 200
"""


class TestImportBoundary:
    def test_import_cli_loads_no_simulator(self):
        assert fresh("import repro.cli" + REPORT) == []

    def test_daemon_start_up_loads_no_simulator(self):
        assert fresh(DAEMON + REPORT) == []

    @pytest.mark.parametrize(
        "argv", [["client", "--help"], ["serve", "--help"], ["--help"]]
    )
    def test_help_loads_no_simulator(self, argv):
        code = f"""
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main({argv!r})
            except SystemExit as exit:
                assert exit.code == 0
        """
        assert fresh(textwrap.dedent(code) + REPORT) == []

    def test_client_request_loads_no_simulator(self):
        code = DAEMON.replace(
            "assert response.status == 200",
            "assert response.status == 200\n"
            "    import contextlib, io\n"
            "    from repro.cli import main\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        assert main(['client', 'health', '--url', url]) == 0\n"
            "    assert json.loads(out.getvalue())['ok']",
        )
        assert fresh("import json\n" + code + REPORT) == []

    def test_lint_loads_no_simulator(self):
        code = """
        import contextlib, io
        from repro.cli import main
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["lint"]) == 0
        assert err.getvalue().startswith("[0 findings")
        """
        assert fresh(textwrap.dedent(code) + REPORT) == []


#: the first requests of a fresh daemon, fired at once from threads that
#: switch often, so their deferred imports interleave.
CONCURRENT_FIRST_USE = """
import json, sys, threading, time, urllib.request
from repro.experiments import EXHIBIT_RUNS, golden
from repro.service.config import ServerConfig
from repro.service.server import serve_background

sys.setswitchinterval(1e-5)

def call(url, method="GET", body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())

fig09 = EXHIBIT_RUNS["fig09"]
config = ServerConfig.from_dict({"port": 0, "queue": {"workers": 2}, "middleware": []})
with serve_background(config) as (server, url):
    requests = {
        "catalogue": (url + "/v1/scenarios", "GET", None),
        "describe": (url + "/v1/scenarios/fig09", "GET", None),
        "run": (
            url + "/v1/scenarios/fig09/runs",
            "POST",
            {"scale": fig09.scale, "seed": fig09.seed},
        ),
        "sweeps": (url + "/v1/sweeps", "GET", None),
    }
    start = threading.Barrier(len(requests))
    answers, errors = {}, {}

    def fire(kind):
        start.wait(timeout=30)
        try:
            answers[kind] = call(*requests[kind])
        except Exception as error:
            errors[kind] = repr(error)

    threads = [threading.Thread(target=fire, args=(kind,)) for kind in requests]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    hung = [thread.name for thread in threads if thread.is_alive()]
    statuses = {kind: status for kind, (status, _) in answers.items()}
    trace = None
    if "run" in answers:
        job = answers["run"][1]["data"]["id"]
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status, view = call(url + "/v1/jobs/" + job)
            if view["data"]["status"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.02)
        status, result = call(url + "/v1/jobs/" + job + "/result")
        trace = result["data"]["trace"]
with open(golden.committed_path("fig09"), encoding="utf-8", newline="") as handle:
    matches = trace == handle.read()
print(json.dumps(
    {"hung": hung, "errors": errors, "statuses": statuses, "matches": matches}
))
"""


def test_concurrent_first_use_of_a_fresh_daemon():
    report = fresh(CONCURRENT_FIRST_USE, timeout=300)
    assert report["hung"] == []
    assert report["errors"] == {}
    assert report["statuses"] == {
        "catalogue": 200,
        "describe": 200,
        "run": 202,
        "sweeps": 200,
    }
    assert report["matches"]


class TestRegistry:
    #: the whole built-in catalogue, in registration order, as one
    #: entry module registers it.
    CATALOGUE = """
    import importlib, json
    importlib.import_module({module!r})
    from repro.scenarios.registry import SCENARIO_REGISTRY, SWEEP_REGISTRY
    print(json.dumps([list(SCENARIO_REGISTRY), list(SWEEP_REGISTRY)]))
    """

    def test_every_entry_module_registers_the_whole_catalogue(self):
        from repro.experiments import EXHIBIT_RUNS

        catalogues = {
            module: fresh(self.CATALOGUE.format(module=f"repro.scenarios.{module}"))
            for module in ("registry", "sweep", "paper", "novel", "hostile")
        }
        scenarios, sweeps = catalogues["registry"]
        assert all(found == [scenarios, sweeps] for found in catalogues.values())
        assert set(EXHIBIT_RUNS) <= set(scenarios)
        assert scenarios[:12] == [
            name for name in scenarios if name.startswith(("fig", "table"))
        ]
        assert scenarios[12:14] == ["asha-distributed-cnn", "bursty-tenants-oom"]
        # the built-in sweeps, then the one the hostile-world pack adds
        assert sweeps == [
            "arrival-rate",
            "cluster-size",
            "algorithm-matrix",
            "fault-intensity",
        ]

    def test_every_package_export_resolves(self):
        code = """
        import importlib, json, pkgutil
        import repro
        packages = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        bad = []
        for name in packages:
            package = importlib.import_module(name)
            exports = getattr(package, "__all__", [])
            missing = sorted(set(exports) - set(dir(package)))
            if missing:
                bad.append(f"{name}: dir() lacks {missing}")
            for export in exports:
                namespace = {}
                exec(f"from {name} import {export}", namespace)
                if namespace[export] is not getattr(package, export):
                    bad.append(f"{name}.{export}")
        print(json.dumps(bad))
        """
        assert fresh(code, timeout=300) == []

    def test_unknown_package_attribute_raises_attribute_error(self):
        import repro.scenarios

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.scenarios.nope

    def test_readme_scenario_imports_run(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        lines = re.findall(r"^from repro\.scenarios import .*$", readme, re.M)
        assert len(lines) == 3
        for line in lines:
            assert fresh(line + "\nprint('[]')") == []


class TestStaticHelp:
    def test_workload_names_are_all_workloads(self):
        assert WORKLOAD_NAMES == tuple(workload.name for workload in ALL_WORKLOADS)

    def test_tune_help_lists_every_workload(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tune", "--help"])
        # argparse wraps at spaces and hyphens: compare without whitespace
        help_text = "".join(capsys.readouterr().out.split())
        names = ",".join(workload.name for workload in ALL_WORKLOADS)
        assert f"oneof:{names}" in help_text

    def test_tune_systems_name_policy_builders(self):
        from repro.cli import _TUNE_POLICIES
        from repro.scenarios import spec

        labels = {
            system: getattr(spec, builder)().label
            for system, builder in _TUNE_POLICIES.items()
        }
        assert labels == {"pipetune": "pipetune", "v1": "tune-v1", "v2": "tune-v2"}
