"""Every scenario and sweep operation, once, for every front end.

The CLI, the daemon's routes and its job runner call the same
functions here (catalogue, describe and run, for scenarios and
sweeps) and format the JSON-safe view each returns, so a client reads
the same payload on either surface. :data:`ERRORS` maps the typed
errors they raise to one envelope type, HTTP status and CLI exit code
each. The module is numpy-free: an operation imports the scenario
layer when it runs. It enters the built-in catalogue through the
registry module only: the catalogue modules import one another, and
threads that all enter that cycle at the registry wait on its lock
instead of deadlocking the import system.
"""

from __future__ import annotations

import numbers
import time
from typing import Dict, List, Optional, Tuple

from .options import RunOptions

#: typed error class name -> (envelope type, HTTP status, CLI exit code).
#: An error takes the entry of the first class on its MRO listed here
#: (by name, so reading the table imports no simulator); one with none,
#: such as a bare ``KeyError`` from a bug, is a 500 or a CLI traceback.
ERRORS = {
    "NotFound": ("NotFound", 404, 2),
    "NoSweepRuns": ("NoSweepRuns", 404, 2),
    "Malformed": ("BadRequest", 400, 2),
    "ScenarioError": ("ScenarioError", 400, 2),
    "SweepError": ("SweepError", 400, 2),
    "UnknownRule": ("UnknownRule", 400, 2),
    "JobQueueFull": ("JobQueueFull", 503, 1),
}


def error_entry(error: BaseException) -> Optional[Tuple[str, int, int]]:
    """``error``'s (envelope type, HTTP status, CLI exit code), or None."""
    for cls in type(error).__mro__:
        entry = ERRORS.get(cls.__name__)
        if entry is not None:
            return entry
    return None


def jsonify(value):
    """JSON-safe copy: numpy scalars -> Python, containers recursed.

    A numpy scalar is told by its type's module, so the CLI and the
    daemon print envelopes without importing numpy."""
    if type(value).__module__ == "numpy":
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real):
            return float(value)
    if isinstance(value, dict):
        return {k: jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    return value


def scenario_summary(runner) -> Dict:
    """One catalogue line of ``scenario list --json`` / ``GET /v1/scenarios``."""
    scenario = runner.scenario
    return {
        "name": scenario.name,
        "source": runner.source,
        "kind": scenario.kind,
        "exhibit": scenario.exhibit,
        "title": scenario.title,
        "description": scenario.description,
        "workloads": list(scenario.workloads),
        "systems": [policy.label for policy in scenario.systems],
        "algorithm": scenario.algorithm.name,
        "tenancy": scenario.tenancy.mode,
        "repetitions": scenario.repetitions,
    }


def scenario_describe_payload(runner, scale: float = 1.0, seed: int = 0) -> Dict:
    """Full declaration + resolved plan, as ``scenario describe --json``.
    A scale the plan rejects raises its :class:`ScenarioError`."""
    plan = runner.plan(scale=scale, seed=seed)
    chains = plan.chains()
    return {
        "source": runner.source,
        "scenario": runner.scenario.as_dict(),
        "plan": {
            "scale": plan.scale,
            "seed": plan.seed,
            "seeds": list(plan.seeds),
            "steps": plan.describe(),
            "chains": [
                {
                    "index": chain.index,
                    "shares_session": chain.shares_session,
                    "steps": list(chain.indices),
                    "labels": [step.label for step in chain.steps],
                }
                for chain in chains
            ],
        },
    }


def sweep_summary(sweep) -> Dict:
    """One catalogue line of ``sweep list --json`` / ``GET /v1/sweeps``."""
    return {
        "name": sweep.name,
        "scenario": sweep.scenario,
        "title": sweep.title,
        "description": sweep.description,
        "axes": [axis.as_dict() for axis in sweep.axes],
        "variants": sweep.grid_size,
    }


def failure_view(outcome) -> Dict:
    """One contained :class:`~repro.scenarios.containment.ChainFailure`
    as envelope-ready data (shared by ``scenario run --json`` and the
    service's job payloads)."""
    return {
        "step_index": outcome.step_index,
        "step_label": outcome.step_label,
        "chain_index": outcome.chain_index,
        "error_type": outcome.error_type,
        "error": outcome.error,
        "skipped": outcome.skipped,
    }


def cache_view(options: RunOptions, stats=None) -> Dict:
    """The one cache block of a run view: whether the run is cached, its
    resolved root, and the hits and misses its ``CacheStats`` counted
    (None until a cached run counts them)."""
    root = options.cache_root
    return {
        "enabled": root is not None,
        "dir": root,
        "hits": stats and stats.hits,
        "misses": stats and stats.misses,
    }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def scenario_catalogue() -> List[Dict]:
    """``scenario list`` / ``GET /v1/scenarios``."""
    from .registry import SCENARIO_REGISTRY

    return [scenario_summary(runner) for runner in SCENARIO_REGISTRY.values()]


def sweep_catalogue() -> List[Dict]:
    """``sweep list`` / ``GET /v1/sweeps``."""
    from .registry import SWEEP_REGISTRY

    return [sweep_summary(sweep) for sweep in SWEEP_REGISTRY.values()]


def describe_scenario(name: str, scale: float = 1.0, seed: int = 0) -> Dict:
    """``scenario describe`` / ``GET /v1/scenarios/{name}``."""
    from .registry import get_definition

    return scenario_describe_payload(get_definition(name), scale=scale, seed=seed)


def describe_sweep(name: str) -> Dict:
    """``GET /v1/sweeps/{name}``: the catalogue line plus the declaration."""
    from .registry import get_sweep

    sweep = get_sweep(name)
    return dict(sweep_summary(sweep), sweep=sweep.as_dict())


def scenario_runner(name: Optional[str] = None, scenario: Optional[Dict] = None):
    """The registered runner ``name``, or a runner over an inline,
    validated ``Scenario.from_dict`` payload."""
    from .registry import get_definition

    if scenario is None:
        return get_definition(name)
    from .runner import ScenarioRunner
    from .spec import Scenario

    return ScenarioRunner(Scenario.from_dict(scenario).validate())


def run_scenario_view(
    options: RunOptions,
    name: Optional[str] = None,
    scenario: Optional[Dict] = None,
    contain: bool = True,
    stop=None,
) -> Dict:
    """``scenario run`` / a scenario job: plan, validate and run one
    scenario (see :func:`scenario_runner`) as ``options`` say.
    ``contain`` returns a raising step as a failure beside the surviving
    rows instead of raising; ``stop`` is the cooperative cancel hook."""
    from ..experiments.golden import render_result
    from .backends import backend_for
    from .merge import run_reports

    started = time.perf_counter()
    runner = scenario_runner(name, scenario)
    plan = runner.plan(scale=options.scale, seed=options.seed)
    runner.validate(plan)
    backend = backend_for(
        options.workers, cache_dir=options.cache_root, contain=contain, stop=stop
    )
    (report,) = run_reports(backend, [(runner, plan)])
    result = report.unwrap()
    return {
        "scenario": runner.scenario.name,
        "source": runner.source,
        "scale": options.scale,
        "seed": options.seed,
        "workers": options.workers,
        "elapsed_s": round(time.perf_counter() - started, 3),
        "cache": cache_view(options, report.cache_stats),
        "failures": [failure_view(failure) for failure in report.failures],
        "result": jsonify(result.as_dict()),
        "trace": render_result(result),
    }


def run_sweep_view(name: str, options: RunOptions, stop=None) -> Tuple:
    """``sweep run`` / a sweep job: every variant of the sweep ``name``;
    a cached run is saved for ``sweep compare``. -> (the
    :class:`SweepResult`, its view: ``as_dict()`` plus ``elapsed_s``, and
    ``cache_dir`` and ``run_id`` when cached)."""
    from .registry import get_sweep  # before .sweep, a catalogue module
    from .cache import SweepRunStore
    from .sweep import run_sweep

    started = time.perf_counter()
    root = options.cache_root
    outcome = run_sweep(
        get_sweep(name),
        scale=options.scale,
        seed=options.seed,
        workers=options.workers,
        cache_dir=root,
        stop=stop,
    )
    view = outcome.as_dict()
    if root is not None:
        view["cache_dir"] = root
        view["run_id"] = SweepRunStore(root).save(outcome)
    view["elapsed_s"] = round(time.perf_counter() - started, 3)
    return outcome, jsonify(view)
