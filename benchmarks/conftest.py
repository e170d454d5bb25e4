"""Shared helpers for the per-exhibit benchmark suite.

Each benchmark module regenerates one table/figure of the paper
through its registered scenario (``repro.experiments.EXHIBIT_RUNS``
runs it via ``repro.scenarios``); the rendered table is written to
``benchmarks/results/<exhibit>.txt`` so a full ``pytest benchmarks/
--benchmark-only`` run leaves the reproduced exhibits on disk.

The committed files are golden traces: they must regenerate
byte-for-byte from the canonical parameters in
``repro.experiments.EXHIBIT_RUNS``, so this suite runs every exhibit
at exactly those parameters rather than carrying its own scale/seed
literals (see benchmarks/README.md, "Determinism contract").
"""

from functools import partial

import pytest

from repro.experiments import EXHIBIT_RUNS, golden

#: worker count threaded from --exhibit-workers into every exhibit
#: regeneration; the rendered bytes are identical for any value, so
#: this is purely a wall-clock knob for multi-core benchmark runs.
_EXHIBIT_WORKERS = {"value": None}


def pytest_addoption(parser):
    parser.addoption(
        "--exhibit-workers",
        type=int,
        default=None,
        help="run each exhibit's scenario on a process pool of N workers "
        "(default: serial; byte-identical results either way)",
    )


def pytest_configure(config):
    _EXHIBIT_WORKERS["value"] = config.getoption("--exhibit-workers", default=None)


@pytest.fixture(scope="session")
def results_dir():
    return golden.RESULTS_DIR


@pytest.fixture
def record_exhibit(results_dir):
    """Returns a callback that persists an ExperimentResult to disk,
    serialized through the golden-trace harness so the bytes cannot
    drift from what the determinism gate expects."""

    def _record(name, result):
        return golden.write_trace(
            name, golden.render_result(result), results_dir
        )

    return _record


def run_exhibit(benchmark, name, record_exhibit, workers=None):
    """Benchmark one exhibit at its canonical (scale, seed), persist it."""
    exhibit_run = EXHIBIT_RUNS[name]
    if workers is None:
        workers = _EXHIBIT_WORKERS["value"]
    result = benchmark.pedantic(
        partial(exhibit_run.run, workers=workers), rounds=1, iterations=1
    )
    record_exhibit(name, result)
    benchmark.extra_info["rows"] = len(result.rows)
    benchmark.extra_info["exhibit"] = result.exhibit
    benchmark.extra_info["scale"] = exhibit_run.scale
    benchmark.extra_info["seed"] = exhibit_run.seed
    benchmark.extra_info["workers"] = workers or 1
    return result
