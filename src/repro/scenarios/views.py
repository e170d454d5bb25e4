"""Shared structured views of scenarios, sweeps and plans.

One implementation of "render this catalogue entry as JSON-safe data"
serves every presentation surface: the CLI's ``--json`` output
(:mod:`repro.cli`) and the scenario service's list/describe endpoints
(:mod:`repro.service.app`) emit byte-for-byte the same payloads, so a
client can switch between the two without reparsing.
"""

from __future__ import annotations

import numbers
from typing import Dict


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
