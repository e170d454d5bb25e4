"""Plugin-style scenario registry: the one catalogue of experiments.

Every runnable experiment — the 12 paper exhibits and any number of
novel scenarios — registers here as a :class:`ScenarioDefinition`:
a declarative :class:`~repro.scenarios.spec.Scenario` plus (optionally)
a custom collector and plan function. The CLI (``repro scenario
list|describe|run``), the service and the golden-trace harness
(``repro.experiments``) all resolve scenarios through this registry.

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

from dataclasses import dataclass
from typing import Dict, List, Optional

from .result import ExperimentResult
from .runner import Collector, PlanFn, ScenarioRunner
from .spec import Scenario

SCENARIO_SOURCES = ("paper", "novel", "user")


@dataclass(frozen=True)
class ScenarioDefinition:
    """One registry entry: the scenario plus its run-time couplings."""

    scenario: Scenario
    collect: Optional[Collector] = None
    plan_fn: Optional[PlanFn] = None
    source: str = "user"

    @property
    def name(self) -> str:
        return self.scenario.name

    def runner(self) -> ScenarioRunner:
        return ScenarioRunner(self)


#: name -> definition, in registration order (paper exhibits first).
SCENARIO_REGISTRY: Dict[str, ScenarioDefinition] = {}


def register(
    scenario: Scenario,
    collect: Optional[Collector] = None,
    plan_fn: Optional[PlanFn] = None,
    source: str = "user",
    replace: bool = False,
) -> ScenarioDefinition:
    """Validate and add one scenario to the registry."""
    if source not in SCENARIO_SOURCES:
        raise ValueError(f"unknown scenario source {source!r}")
    if scenario.name in SCENARIO_REGISTRY and not replace:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    if scenario.kind != "analysis":
        scenario.validate()
    definition = ScenarioDefinition(
        scenario=scenario, collect=collect, plan_fn=plan_fn, source=source
    )
    SCENARIO_REGISTRY[scenario.name] = definition
    return definition


def get_definition(name: str) -> ScenarioDefinition:
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        known = ", ".join(SCENARIO_REGISTRY)
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names(source: Optional[str] = None) -> List[str]:
    return [
        name
        for name, definition in SCENARIO_REGISTRY.items()
        if source is None or definition.source == source
    ]


def run_scenario(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    workers: Optional[int] = None,
    backend=None,
) -> ExperimentResult:
    """Resolve a scenario by name and run all four phases.

    ``workers > 1`` executes the plan's chains on a process pool
    (bit-identical to serial execution; see
    :mod:`repro.scenarios.backends`). ``backend`` overrides the
    backend outright — e.g. a :class:`~repro.scenarios.cache.
    CachingBackend` for content-addressed reuse; the rendered result
    is byte-identical either way."""
    return get_definition(name).runner().run(
        scale=scale, seed=seed, workers=workers, backend=backend
    )
