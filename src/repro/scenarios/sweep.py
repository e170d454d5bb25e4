"""Declarative parameter sweeps: scenario x grid -> variant matrix.

A :class:`Sweep` names a registered scenario and a list of
:class:`SweepAxis` overrides (dotted paths into the scenario's
``as_dict`` form, e.g. ``tenancy.mean_interarrival_s`` or
``cluster.nodes``). Its cartesian product expands into validated
scenario *variants* — the base definition with only the overridden
fields changed, keeping the registered collector and plan function —
and :func:`run_sweep` plans every variant and runs all of their
chains through one execution backend (with ``workers > 1``, one
process pool for the chains of every variant), collecting each
variant as soon as its own chains are back.

Like scenarios, sweeps live in a registry
(:data:`~repro.scenarios.registry.SWEEP_REGISTRY`)
with a handful of built-ins — arrival-rate x admission matrices over
the multi-tenancy exhibit, cluster sizing over the convergence
exhibit, an HPO-algorithm matrix over the novel ASHA scenario — and
a ``repro sweep list|run`` CLI front end.

    from repro.scenarios.sweep import Sweep, SweepAxis, run_sweep

    sweep = Sweep(
        name="my-sweep",
        scenario="fig09",
        axes=(SweepAxis("cluster.nodes", (2, 4, 8)),),
    )
    outcome = run_sweep(sweep, scale=0.3, seed=0, workers=4)
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..schema import Spec
from .cache import CacheStats
from .options import scale_problem
from .registry import SCENARIO_REGISTRY, get_definition, get_sweep, register_sweep
from .result import ExperimentResult
from .spec import Scenario, ScenarioError


class SweepError(ValueError):
    """A sweep failed validation; ``problems`` lists every issue."""

    def __init__(self, name: str, problems: Sequence[str]):
        self.sweep = name
        self.problems = list(problems)
        super().__init__(f"invalid sweep {name!r}: {'; '.join(self.problems)}")

    def __reduce__(self):
        # Default pickling would rebuild via cls(*self.args) — one
        # formatted string against a two-argument __init__.
        return type(self), (self.sweep, self.problems)


def _fmt(value) -> str:
    """Compact human label for one axis value."""
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, Mapping):
        return str(value.get("name", value))
    return str(value)


@dataclass(frozen=True)
class SweepAxis(Spec):
    """One swept dimension: a dotted scenario path and its values.

    ``path`` indexes into ``Scenario.as_dict()`` (``cluster.nodes``,
    ``tenancy.max_concurrent_jobs``, ``algorithm`` …); every value
    must be representable in that dict form. ``labels`` optionally
    names the values for variant naming (useful when a value is a
    whole sub-dict, e.g. an algorithm spec).
    """

    path: str
    values: Tuple[object, ...]
    labels: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        labels = tuple(self.labels) or tuple(_fmt(v) for v in self.values)
        object.__setattr__(self, "labels", labels)
        issues = self.problems()
        if issues:
            raise ValueError("; ".join(issues))

    def problems(self) -> List[str]:
        issues: List[str] = []
        if not self.path:
            issues.append("axis path must be non-empty")
        if not self.values:
            issues.append(f"axis {self.path!r} has no values")
        if len(self.labels) != len(self.values):
            issues.append(f"axis {self.path!r}: one label per value required")
        return issues


def set_override(data: Dict, path: str, value) -> None:
    """Set one dotted-path override on a scenario dict, in place.

    Only *existing* fields may be overridden — a typo'd path must fail
    loudly instead of silently adding an ignored key.
    """
    node = data
    segments = path.split(".")
    for segment in segments[:-1]:
        if not isinstance(node, dict) or segment not in node:
            raise KeyError(f"override path {path!r}: no field {segment!r}")
        node = node[segment]
    leaf = segments[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise KeyError(f"override path {path!r}: no field {leaf!r}")
    node[leaf] = value


def apply_overrides(
    scenario: Scenario,
    overrides: Sequence[Tuple[str, object]],
    name: Optional[str] = None,
) -> Scenario:
    """The scenario variant one override combination resolves to."""
    data = scenario.as_dict()
    for path, value in overrides:
        set_override(data, path, value)
    if name is not None:
        data["name"] = name
    return Scenario.from_dict(data)


@dataclass(frozen=True)
class SweepVariant:
    """One cell of the sweep grid: a named, fully resolved scenario."""

    name: str
    overrides: Tuple[Tuple[str, object], ...]
    scenario: Scenario


@dataclass(frozen=True)
class Sweep(Spec):
    """A declared parameter sweep over one registered scenario."""

    name: str
    scenario: str
    axes: Tuple[SweepAxis, ...]
    title: str = ""
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def grid_size(self) -> int:
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    # -- expansion and validation -------------------------------------------
    def _expand(self) -> Tuple[List[SweepVariant], List[str]]:
        """The grid, expanded once: every cell as a validated scenario
        variant, in deterministic row-major axis order, and every
        problem found on the way."""
        issues: List[str] = []
        if not self.name:
            issues.append("sweep name must be non-empty")
        if self.scenario not in SCENARIO_REGISTRY:
            issues.append(
                f"unknown scenario {self.scenario!r}; known: "
                f"{', '.join(SCENARIO_REGISTRY)}"
            )
            return [], issues
        if not self.axes:
            issues.append("sweep needs at least one axis")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            issues.append(f"duplicate axis paths {sorted(paths)}")
        base = get_definition(self.scenario).scenario
        built: List[SweepVariant] = []
        value_sets = [
            [
                (axis.path, value, label)
                for value, label in zip(axis.values, axis.labels)
            ]
            for axis in self.axes
        ]
        for cell in itertools.product(*value_sets):
            tag = ",".join(f"{path}={label}" for path, _, label in cell)
            name = f"{self.scenario}[{tag}]"
            overrides = tuple((path, value) for path, value, _ in cell)
            try:
                variant = apply_overrides(base, overrides, name=name)
                if variant.kind != "analysis":
                    variant.validate()
            except KeyError as error:
                issues.append(str(error.args[0]))
                break  # a bad path breaks every variant identically
            except (ScenarioError, TypeError, ValueError) as error:
                issues.append(f"variant {name!r}: {error}")
            else:
                built.append(SweepVariant(name, overrides, variant))
        return built, issues

    def problems(self) -> List[str]:
        return self._expand()[1]

    def variants(self) -> List[SweepVariant]:
        """Every grid cell as a validated scenario variant; a sweep with
        any problem raises :class:`SweepError` naming them all."""
        built, issues = self._expand()
        if issues:
            raise SweepError(self.name, issues)
        return built

    def validate(self) -> "Sweep":
        self.variants()
        return self


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantOutcome:
    """One executed variant: its table — or its contained failure.

    A variant that raises does not abort the sweep; it comes back with
    ``result=None`` and the error recorded, while every other variant
    still carries its table (``ok`` distinguishes them).
    """

    name: str
    overrides: Tuple[Tuple[str, object], ...]
    result: Optional[ExperimentResult]
    elapsed_s: float
    error_type: Optional[str] = None
    error: Optional[str] = None
    #: chain-cache counters; None when the run was uncached.
    cache_stats: Optional[CacheStats] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "overrides": {path: value for path, value in self.overrides},
            "elapsed_s": round(self.elapsed_s, 3),
            "ok": self.ok,
            "error_type": self.error_type,
            "error": self.error,
            "cache_hits": self.cache_stats and self.cache_stats.hits,
            "cache_misses": self.cache_stats and self.cache_stats.misses,
            "result": self.result.as_dict() if self.result is not None else None,
        }


@dataclass(frozen=True)
class SweepResult:
    """All variants of one sweep run, in grid order."""

    sweep: Sweep
    scale: float
    seed: int
    workers: int
    outcomes: Tuple[VariantOutcome, ...] = field(default_factory=tuple)

    @property
    def surviving(self) -> Tuple[VariantOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> Tuple[VariantOutcome, ...]:
        return tuple(outcome for outcome in self.outcomes if not outcome.ok)

    @property
    def cache_stats(self) -> Optional[CacheStats]:
        """Chain-cache counters summed over variants; None if uncached."""
        counted = [o.cache_stats for o in self.outcomes if o.cache_stats is not None]
        return sum(counted, CacheStats()) if counted else None

    # kept while perfbench/session.py reads them instead of cache_stats
    @property
    def cache_hits(self) -> Optional[int]:
        return self.cache_stats and self.cache_stats.hits

    @property
    def cache_misses(self) -> Optional[int]:
        return self.cache_stats and self.cache_stats.misses

    def as_dict(self) -> Dict:
        return {
            "sweep": self.sweep.as_dict(),
            "scale": self.scale,
            "seed": self.seed,
            "workers": self.workers,
            "cache": self.cache_stats and self.cache_stats.as_dict(),
            "variants": [outcome.as_dict() for outcome in self.outcomes],
        }


def run_sweep(
    sweep: Union[Sweep, str],
    scale: float = 1.0,
    seed: int = 0,
    workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> SweepResult:
    """Expand a sweep and execute every variant, pooled when asked.

    Every variant is planned up front and all of their chains run
    through one backend, so ``workers > 1`` spreads the chains of every
    variant over one pool. A variant is collected as
    soon as its last chain is back (:func:`~repro.scenarios.merge.
    run_reports`) — serially, before the next variant's chains run, so
    only one variant's outcomes are held at a time. Results are
    identical for any worker count: each variant's streams are
    counter-keyed on its own specs and seeds.

    The sweep degrades gracefully: a variant whose planning, any step
    or collect raised is reported failed with no table
    (``SweepResult.failed``; its error is the exception or the first
    non-skipped :class:`ChainFailure`) while every other variant still
    returns its table. ``stop`` is the cooperative cancel hook: chains
    not started once it returns True fail their variants with
    ``JobCancelled``.

    ``cache_dir`` enables the content-addressed outcome cache
    (:mod:`repro.scenarios.cache`): chains shared with earlier runs
    are recalled from disk instead of re-executed and the per-variant
    hit/miss counts land on the outcomes; the tables are
    byte-identical either way. ``elapsed_s`` is a variant's planning
    time plus its ``RunReport.elapsed_s``.
    """
    from .backends import backend_for  # late import: backends imports runner
    from .merge import run_reports

    if isinstance(sweep, str):
        sweep = get_sweep(sweep)
    cells = sweep.variants()
    problem = scale_problem(scale)
    if problem:
        raise SweepError(sweep.name, [problem])
    backend = backend_for(workers, cache_dir=cache_dir, stop=stop)
    base = get_definition(sweep.scenario)
    variants: List[Optional[VariantOutcome]] = [None] * len(cells)
    planned, pairs = [], []  # (grid cell, planning seconds), (runner, plan)
    for k, cell in enumerate(cells):
        started = time.perf_counter()
        try:
            runner = replace(base, scenario=cell.scenario)
            plan = runner.plan(scale=scale, seed=seed)
            runner.validate(plan)
        except Exception as error:
            variants[k] = VariantOutcome(
                name=cell.name,
                overrides=cell.overrides,
                result=None,
                elapsed_s=time.perf_counter() - started,
                error_type=type(error).__name__,
                error=str(error),
            )
        else:
            planned.append((k, time.perf_counter() - started))
            pairs.append((runner, plan))
    for report, (k, seconds) in zip(run_reports(backend, pairs), planned):
        # plan order, non-skipped first: the step that raised, not the
        # steps skipped after it or by a cancel.
        failure = min(report.failures, key=lambda f: f.skipped, default=None)
        error_type = error = None
        if failure is not None:
            error_type, error = failure.error_type, failure.error
        elif report.error is not None:
            error_type, error = type(report.error).__name__, str(report.error)
        variants[k] = VariantOutcome(
            name=cells[k].name,
            overrides=cells[k].overrides,
            result=None if error_type else report.result,
            elapsed_s=seconds + report.elapsed_s,
            error_type=error_type,
            error=error,
            cache_stats=report.cache_stats,
        )
    return SweepResult(
        sweep=sweep,
        scale=scale,
        seed=seed,
        workers=workers or 1,
        outcomes=tuple(variants),
    )


# ---------------------------------------------------------------------------
# Built-ins
# ---------------------------------------------------------------------------

register_sweep(
    Sweep(
        name="arrival-rate",
        scenario="fig13",
        title="Multi-tenancy under arrival pressure",
        description=(
            "The Figure-13 shared cluster swept over job arrival rate "
            "and admission concurrency: how response time degrades as "
            "tenants arrive faster than the cluster drains them."
        ),
        axes=(
            SweepAxis("tenancy.mean_interarrival_s", (1800.0, 1200.0, 600.0)),
            SweepAxis("tenancy.max_concurrent_jobs", (2, 4)),
        ),
    )
)

register_sweep(
    Sweep(
        name="cluster-size",
        scenario="fig09",
        title="Convergence vs cluster size",
        description=(
            "The Figure-9 convergence comparison on 2-, 4- and 8-node "
            "clusters: does PipeTune's advantage survive scaling the "
            "testbed up and down?"
        ),
        axes=(SweepAxis("cluster.nodes", (2, 4, 8)),),
    )
)

register_sweep(
    Sweep(
        name="algorithm-matrix",
        scenario="asha-distributed-cnn",
        title="HPO-algorithm matrix on the distributed CNN",
        description=(
            "The novel ASHA scenario with its search algorithm swapped "
            "across ASHA, HyperBand and random search — V1 vs PipeTune "
            "under each scheduler."
        ),
        axes=(
            SweepAxis(
                "algorithm",
                (
                    {
                        "name": "asha",
                        "params": {"max_epochs": 9, "eta": 3, "num_samples": 20},
                    },
                    {"name": "hyperband", "params": {"max_epochs": 9, "eta": 3}},
                    {"name": "random", "params": {"num_samples": 20, "epochs": 9}},
                ),
                labels=("asha", "hyperband", "random"),
            ),
        ),
    )
)

# next in the built-in catalogue chain (see repro.scenarios.registry)
import_module(".hostile", __package__)
