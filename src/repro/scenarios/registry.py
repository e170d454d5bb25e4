"""Plugin-style scenario registry: the one catalogue of experiments.

Every runnable experiment — the 12 paper exhibits and any number of
novel scenarios — registers here as a :class:`~repro.scenarios.runner.
ScenarioRunner`: a declarative :class:`~repro.scenarios.spec.Scenario`
plus (optionally) a custom collector and plan function. The entry is
frozen and holds no run state, so every front end — the CLI
(``repro scenario list|describe|run``), the service and the
golden-trace harness (``repro.experiments``) — runs the registered
object itself. Sweeps (:class:`~repro.scenarios.sweep.Sweep`) register
here too, in :data:`SWEEP_REGISTRY`. Importing this module registers
every built-in scenario and sweep (see the chain at its end).

Downstream code extends the catalogue the same way the built-ins do::

    from repro.scenarios import Scenario, register, tune_v1, pipetune

    register(
        Scenario.builder("my-sweep")
        .workloads("lenet-mnist")
        .compare(tune_v1(), pipetune())
        .repetitions(2)
        .build()
    )
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, List, Optional

from ..schema import NotFound
from .result import ExperimentResult
from .runner import Collector, PlanFn, ScenarioRunner
from .spec import Scenario

if TYPE_CHECKING:
    from .sweep import Sweep

SCENARIO_SOURCES = ("paper", "novel", "user")

#: name -> runner, in registration order (paper exhibits first).
SCENARIO_REGISTRY: Dict[str, ScenarioRunner] = {}


def register(
    scenario: Scenario,
    collect: Optional[Collector] = None,
    plan_fn: Optional[PlanFn] = None,
    source: str = "user",
    replace: bool = False,
) -> ScenarioRunner:
    """Validate and add one scenario to the registry."""
    if source not in SCENARIO_SOURCES:
        raise ValueError(f"unknown scenario source {source!r}")
    if scenario.name in SCENARIO_REGISTRY and not replace:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    if scenario.kind != "analysis":
        scenario.validate()
    runner = ScenarioRunner(scenario, collector=collect, plan_fn=plan_fn, source=source)
    SCENARIO_REGISTRY[scenario.name] = runner
    return runner


def get_definition(name: str) -> ScenarioRunner:
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        known = ", ".join(SCENARIO_REGISTRY)
        raise NotFound(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names(source: Optional[str] = None) -> List[str]:
    return [
        name
        for name, runner in SCENARIO_REGISTRY.items()
        if source is None or runner.source == source
    ]


def run_scenario(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    backend=None,
) -> ExperimentResult:
    """Resolve a scenario by name and run all four phases.

    ``backend`` picks where the plan's chains run (default serial) —
    e.g. a :class:`~repro.scenarios.cache.CachingBackend` for
    content-addressed reuse; the rendered result is byte-identical
    either way."""
    return get_definition(name).run(scale=scale, seed=seed, backend=backend)


#: name -> sweep, in registration order (built-ins first).
SWEEP_REGISTRY: Dict[str, Sweep] = {}


def register_sweep(sweep: Sweep, replace: bool = False) -> Sweep:
    """Validate and add one sweep to the registry."""
    if sweep.name in SWEEP_REGISTRY and not replace:
        raise ValueError(f"sweep {sweep.name!r} already registered")
    sweep.validate()
    SWEEP_REGISTRY[sweep.name] = sweep
    return sweep


def get_sweep(name: str) -> Sweep:
    try:
        return SWEEP_REGISTRY[name]
    except KeyError:
        known = ", ".join(SWEEP_REGISTRY)
        raise NotFound(f"unknown sweep {name!r}; known: {known}") from None


# The built-in catalogue loads as one chain, in registration order:
# this module imports paper, then paper, novel and sweep each import
# the next module once their own entries are in, and hostile comes
# last. Each of them imports this module first, so importing any one
# of them, or this module, registers the whole catalogue in the same
# order: paper exhibits, novel scenarios, the built-in sweeps (which
# name registered scenarios), then the hostile-world pack. The chain
# is an import cycle: threads that may load it at the same time enter
# it here, as the service does, never at one of the other modules.
import_module(".paper", __package__)
