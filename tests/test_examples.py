"""Smoke tests: every example script runs end to end.

Each example is executed as a subprocess (the way a user would run
it) and checked for a zero exit status plus its key output markers.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name, *args, timeout=240):
    path = os.path.join(EXAMPLES_DIR, name)
    return subprocess.run(
        [sys.executable, path, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py", "0")
        assert proc.returncode == 0, proc.stderr
        assert "PipeTune" in proc.stdout
        assert "Ground-truth hit rate" in proc.stdout

    def test_nlp_text_classification(self):
        proc = run_example("nlp_text_classification.py", "0")
        assert proc.returncode == 0, proc.stderr
        assert "Job 2: LSTM" in proc.stdout
        assert "ground-truth hits during job 2" in proc.stdout

    def test_multi_tenant_cluster(self):
        proc = run_example("multi_tenant_cluster.py", "4", "0")
        assert proc.returncode == 0, proc.stderr
        assert "mean response" in proc.stdout
        assert "vs Tune V1" in proc.stdout

    def test_custom_workload(self):
        proc = run_example("custom_workload.py", "0")
        assert proc.returncode == 0, proc.stderr
        for algorithm in ("random", "asha", "hyperband"):
            assert algorithm in proc.stdout

    def test_energy_aware_tuning(self):
        proc = run_example("energy_aware_tuning.py", "0")
        assert proc.returncode == 0, proc.stderr
        assert "runtime objective" in proc.stdout
        assert "PDU estimate" in proc.stdout

    def test_failure_injection(self):
        proc = run_example("failure_injection.py", "0")
        assert proc.returncode == 0, proc.stderr
        assert "failed trials" in proc.stdout
        assert "out of memory" in proc.stdout

    def test_failure_injection_is_deterministic(self):
        first = run_example("failure_injection.py", "3")
        again = run_example("failure_injection.py", "3")
        assert first.returncode == 0, first.stderr
        assert "out of memory" in first.stdout
        assert again.stdout == first.stdout

    def test_service_client(self):
        proc = run_example("service_client.py")
        assert proc.returncode == 0, proc.stderr
        assert "service listening at http://" in proc.stdout
        assert "byte-identical" in proc.stdout
        assert "statuses [200, 200, 200, 429]" in proc.stdout
