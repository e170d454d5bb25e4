"""Declarative scenario model: *what* to run, never *how*.

A :class:`Scenario` is a frozen, validated, JSON-serialisable
description of one experiment: workload(s) x cluster topology x HPO
algorithm x system policies x objective x tenancy/arrival pattern x
failure injection x repetitions. The middleware derives the *how* —
spec construction, session sharing, execution order — inside
:class:`~repro.scenarios.runner.ScenarioRunner`, mirroring the
semantic-driven configuration style of the middleware literature
(declare the intent, derive the mechanics).

Composition points:

* :class:`ClusterSpec` — node count/shape (paper presets included);
* :class:`AlgorithmSpec` — any registered search algorithm + kwargs;
* :class:`SystemPolicySpec` — one compared system per entry
  (``v1`` / ``v2`` / ``pipetune`` / ``fixed``), with per-policy
  overrides (search-space pinning, contention, sample scale, labels);
* :class:`TenancySpec` — dedicated cluster per job, or a shared
  cluster with a Poisson arrival process;
* :class:`FailureSpec` — failure injection: OOM, spot preemption with
  checkpoint/restore, node churn, transient crashes (with a per-job
  retry policy) and straggler slowdown, all default-off;
* :class:`ScenarioBuilder` — fluent construction
  (``Scenario.builder("name").workloads(...).compare(...).build()``).

Every piece is a :class:`~repro.schema.Spec`: ``as_dict``/``from_dict``
come from its fields and type hints, not from code written per class,
so scenarios can be stored, diffed and shipped as data (a dict form
is plain JSON). Decoding rejects unknown keys and
wrong-shaped values with a :class:`ScenarioError` naming the dotted
path (``failures.preemption``, ``systems[0]``). The dict form keeps
field order, and a round trip keeps the repr that keys every RNG
stream and cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..hpo.algorithms import RandomSearch
from ..hpo.asha import Asha
from ..hpo.hyperband import HyperBand
from ..hpo.space import SearchSpace, joint_space, paper_hyper_space
from ..schema import Spec
from ..simulation.cluster import NodeSpec, SimCluster
from ..simulation.des import Environment
from ..tune.faults import (
    ChurnSpec,
    CrashSpec,
    FaultModel,
    PreemptionSpec,
    RetryPolicy,
    StragglerSpec,
)
from ..tune.objectives import accuracy_objective, accuracy_per_time_objective
from ..workloads.registry import ALL_WORKLOADS, get_workload, workloads_of_type
from ..workloads.spec import HyperParams, SystemParams

#: Tune V2 explores a larger space: proportionally more samples (§7.3).
V2_SAMPLE_SCALE = 1.5
#: per-trial job-submission/initialisation overhead every system pays
#: (the "Init" phase visible in the paper's Fig 2).
TRIAL_INIT_S = 20.0
#: extra executor-restart cost Tune V2 pays per resource-reshaped
#: trial (§4: trial resources "manually controlled"); V1 and PipeTune
#: keep warm executors (PipeTune reshapes in place).
V2_TRIAL_SETUP_S = TRIAL_INIT_S + 45.0

#: search algorithms a scenario can name; each builder takes
#: ``(space, seed=..., **params)``.
ALGORITHM_BUILDERS = {
    "hyperband": HyperBand,
    "asha": Asha,
    "random": RandomSearch,
}

#: trial objectives a scenario/policy can name.
OBJECTIVES = {
    "accuracy": accuracy_objective,
    "accuracy_per_time": accuracy_per_time_objective,
}

POLICY_KINDS = ("v1", "v2", "pipetune", "fixed")
WARM_STARTS = ("type12", "scenario")
SCENARIO_KINDS = ("tuning", "analysis")
TENANCY_MODES = ("dedicated", "shared")

_KNOWN_WORKLOADS = tuple(w.name for w in ALL_WORKLOADS)


class ScenarioError(ValueError):
    """A scenario failed validation; ``problems`` lists every issue."""

    def __init__(self, name: str, problems: Sequence[str]):
        self.scenario = name
        self.problems = list(problems)
        detail = "; ".join(self.problems)
        super().__init__(f"invalid scenario {name!r}: {detail}")

    def __reduce__(self):
        # Default pickling would rebuild via cls(*self.args) — one
        # formatted string against a two-argument __init__.
        return type(self), (self.scenario, self.problems)


def _pairs(mapping) -> Tuple[Tuple[str, object], ...]:
    """Canonical (sorted) tuple-of-pairs form of a mapping field."""
    if mapping is None:
        return ()
    if isinstance(mapping, Mapping):
        items = mapping.items()
    else:
        items = tuple(tuple(p) for p in mapping)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ClusterSpec(Spec):
    """Homogeneous cluster topology (the paper testbeds and beyond)."""

    nodes: int = 4
    cores_per_node: int = 16
    memory_gb_per_node: float = 64.0
    idle_watts: float = 60.0
    core_watts: float = 11.5

    def __post_init__(self):
        issues = self.problems()
        if issues:
            raise ValueError("; ".join(issues))

    def problems(self) -> List[str]:
        issues: List[str] = []
        if self.nodes < 1:
            issues.append("cluster needs at least one node")
        if self.cores_per_node < 1:
            issues.append("cores_per_node must be >= 1")
        if self.memory_gb_per_node <= 0:
            issues.append("memory_gb_per_node must be positive")
        if self.idle_watts < 0 or self.core_watts < 0:
            issues.append("idle_watts/core_watts must be >= 0")
        return issues

    @property
    def distributed(self) -> bool:
        return self.nodes > 1

    def build(self, env: Environment) -> SimCluster:
        """Instantiate the cluster (node names match the paper's)."""
        return SimCluster(
            env,
            [
                NodeSpec(
                    name=f"node{i}",
                    cores=self.cores_per_node,
                    memory_gb=self.memory_gb_per_node,
                    idle_watts=self.idle_watts,
                    core_watts=self.core_watts,
                )
                for i in range(self.nodes)
            ],
        )


#: the 4-node testbed used for Type-I / Type-II experiments (§7.1.1).
PAPER_DISTRIBUTED_CLUSTER = ClusterSpec()
#: the single E5-2620 node used for Type-III experiments (§7.1.1).
PAPER_SINGLE_NODE = ClusterSpec(
    nodes=1, cores_per_node=8, memory_gb_per_node=24.0, idle_watts=55.0, core_watts=10.0
)


@dataclass(frozen=True)
class AlgorithmSpec(Spec):
    """A search algorithm by registry name plus its keyword arguments."""

    name: str = "hyperband"
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _pairs(self.params))

    def problems(self) -> List[str]:
        if self.name not in ALGORITHM_BUILDERS:
            return [
                f"unknown algorithm {self.name!r}; known: "
                f"{sorted(ALGORITHM_BUILDERS)}"
            ]
        return []

    def build(self, space: SearchSpace, seed: int, sample_scale: float = 1.0):
        kwargs = dict(self.params)
        if self.name == "hyperband":
            kwargs.setdefault("sample_scale", sample_scale)
        return ALGORITHM_BUILDERS[self.name](space, seed=seed, **kwargs)


@dataclass(frozen=True)
class SystemPolicySpec(Spec):
    """One compared system: a policy plus its per-policy overrides.

    ``None`` fields mean "derive the paper default for this kind":
    trial setup cost (V2 pays an executor restart), HyperBand sample
    scale (V2 explores a proportionally larger space), the trial
    objective (V2 scores accuracy per time) and the ground-truth warm
    start (the paper's offline campaign workloads).
    """

    kind: str = "pipetune"
    label: str = ""
    name: str = ""  # HptJobSpec name override (defaults to kind-workload)
    trial_setup_s: Optional[float] = None
    sample_scale: Optional[float] = None
    warm_start: Optional[str] = None
    objective: Optional[str] = None
    contention: float = 1.0
    #: per-policy search-space pinning: ((param, (choices...)), ...)
    space_overrides: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: fixed-kind only: the hyper/system parameters of the single trial.
    hyper: Tuple[Tuple[str, object], ...] = ()
    system: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "space_overrides",
            tuple((str(k), tuple(v)) for k, v in self.space_overrides),
        )
        object.__setattr__(self, "hyper", _pairs(self.hyper))
        object.__setattr__(self, "system", _pairs(self.system))
        if not self.label:
            object.__setattr__(self, "label", _DEFAULT_LABELS.get(self.kind, self.kind))

    # -- derived defaults --------------------------------------------------
    @property
    def effective_trial_setup_s(self) -> float:
        if self.trial_setup_s is not None:
            return self.trial_setup_s
        return V2_TRIAL_SETUP_S if self.kind == "v2" else TRIAL_INIT_S

    @property
    def effective_sample_scale(self) -> float:
        if self.sample_scale is not None:
            return self.sample_scale
        return V2_SAMPLE_SCALE if self.kind == "v2" else 1.0

    @property
    def effective_objective(self) -> str:
        if self.objective is not None:
            return self.objective
        return "accuracy_per_time" if self.kind == "v2" else "accuracy"

    def effective_warm_start(self, cluster: ClusterSpec) -> str:
        if self.warm_start is not None:
            return self.warm_start
        return "type12" if cluster.distributed else "scenario"

    def problems(self, where: str = "") -> List[str]:
        """Context-free validation; the scenario adds cluster-aware checks."""
        prefix = where or f"policy {self.label!r}"
        issues: List[str] = []
        if self.kind not in POLICY_KINDS:
            issues.append(f"{prefix}: unknown kind {self.kind!r}")
            return issues
        if self.warm_start is not None and self.warm_start not in WARM_STARTS:
            issues.append(f"{prefix}: unknown warm_start {self.warm_start!r}")
        if self.objective is not None and self.objective not in OBJECTIVES:
            issues.append(
                f"{prefix}: unknown objective {self.objective!r}; "
                f"known: {sorted(OBJECTIVES)}"
            )
        if self.kind == "pipetune" and self.objective not in (None, "accuracy"):
            issues.append(
                f"{prefix}: pipetune keeps the accuracy objective (V1 level)"
            )
        if self.contention < 1.0:
            issues.append(f"{prefix}: contention must be >= 1")
        return issues

    def hyper_params(self) -> HyperParams:
        return HyperParams(**dict(self.hyper))

    def system_params(self) -> SystemParams:
        return SystemParams(**dict(self.system))


_DEFAULT_LABELS = {
    "v1": "tune-v1",
    "v2": "tune-v2",
    "pipetune": "pipetune",
    "fixed": "fixed",
}


def tune_v1(**overrides) -> SystemPolicySpec:
    """The Tune V1 baseline policy (accuracy only, fixed system)."""
    return SystemPolicySpec(kind="v1", **overrides)


def tune_v2(**overrides) -> SystemPolicySpec:
    """The Tune V2 baseline policy (system params in the space)."""
    return SystemPolicySpec(kind="v2", **overrides)


def pipetune(**overrides) -> SystemPolicySpec:
    """The PipeTune policy (pipelined system tuning via hooks)."""
    return SystemPolicySpec(kind="pipetune", **overrides)


def fixed_trial(
    hyper: Mapping, system: Mapping, label: str = "fixed", **overrides
) -> SystemPolicySpec:
    """A no-tuning policy: one plain training trial per seed."""
    return SystemPolicySpec(
        kind="fixed",
        label=label,
        hyper=_pairs(hyper),
        system=_pairs(system),
        **overrides,
    )


@dataclass(frozen=True)
class TenancySpec(Spec):
    """Dedicated cluster per job, or shared cluster with arrivals."""

    mode: str = "dedicated"
    num_jobs: int = 12
    mean_interarrival_s: float = 1200.0
    unseen_fraction: float = 0.2
    max_concurrent_jobs: int = 2
    min_jobs: int = 4

    @property
    def shared(self) -> bool:
        return self.mode == "shared"

    def scaled_jobs(self, scale: float) -> int:
        return max(self.min_jobs, int(round(self.num_jobs * scale)))

    def problems(self) -> List[str]:
        issues: List[str] = []
        if self.mode not in TENANCY_MODES:
            issues.append(f"unknown tenancy mode {self.mode!r}")
            return issues
        if self.shared:
            if self.num_jobs < 1 or self.min_jobs < 1:
                issues.append("shared tenancy needs num_jobs/min_jobs >= 1")
            if self.mean_interarrival_s <= 0:
                issues.append("mean_interarrival_s must be positive")
            if not 0.0 <= self.unseen_fraction <= 1.0:
                issues.append("unseen_fraction must be in [0, 1]")
            if self.max_concurrent_jobs < 1:
                issues.append("max_concurrent_jobs must be >= 1")
        return issues


@dataclass(frozen=True)
class FailureSpec(Spec):
    """Composable failure-injection model; every axis defaults off.

    ``oom_threshold`` kills memory-starved trials (the original knob);
    the hostile-world axes declare spot preemption with
    checkpoint/restore, node churn, transient crashes recovered by the
    per-job :class:`~repro.tune.faults.RetryPolicy`, and straggler
    slowdown. Declaration only — injection and recovery live in the
    tune layer (:mod:`repro.tune.faults`), and every fault is drawn
    from counter-keyed streams so injected chaos is bit-deterministic
    under any execution backend.
    """

    PATH = "failures"

    oom_threshold: Optional[float] = None
    preemption: Optional[PreemptionSpec] = None
    churn: Optional[ChurnSpec] = None
    crash: Optional[CrashSpec] = None
    straggler: Optional[StragglerSpec] = None
    retry: Optional[RetryPolicy] = None

    def fault_model(self) -> Optional[FaultModel]:
        """The tune-layer fault model, or None when every axis is off."""
        model = FaultModel(
            preemption=self.preemption,
            churn=self.churn,
            crash=self.crash,
            straggler=self.straggler,
        )
        return model if model.active else None

    def problems(self) -> List[str]:
        issues: List[str] = []
        if self.oom_threshold is not None and self.oom_threshold <= 0:
            issues.append("oom_threshold must be positive")
        for spec_field in fields(self):
            spec = getattr(self, spec_field.name)
            if isinstance(spec, Spec):
                issues.extend(spec.problems(where=f"{self.PATH}.{spec_field.name}"))
        return issues

    def describe(self) -> List[str]:
        """Human-readable line(s) of the full failure model."""
        lines: List[str] = []
        if self.oom_threshold is not None:
            lines.append(f"OOM at {self.oom_threshold:g}x memory")
        if self.preemption is not None:
            p = self.preemption
            lines.append(
                f"preemption p={p.rate_per_epoch:g}/epoch, checkpoint "
                f"every {p.checkpoint_every_epochs} epoch(s), restore "
                f"{p.effective_restore_cost_s:g}s, max {p.max_events} "
                "event(s)"
            )
        if self.churn is not None:
            c = self.churn
            lines.append(
                f"node churn p={c.rate_per_epoch:g}/epoch, reschedule "
                f"after {c.reschedule_delay_s:g}s, max {c.max_events} "
                "event(s)"
            )
        if self.crash is not None:
            lines.append(f"crashes p={self.crash.rate_per_epoch:g}/epoch")
        if self.straggler is not None:
            s = self.straggler
            lines.append(
                f"stragglers {s.fraction:.0%} of placements at "
                f"{s.slowdown:g}x slowdown"
            )
        if self.retry is not None:
            r = self.retry
            lines.append(
                f"retry policy: {r.max_retries} retries, backoff "
                f"{r.backoff_base_s:g}s x {r.backoff_factor:g}"
            )
        return lines


@dataclass(frozen=True)
class Scenario(Spec):
    """One declared experiment; see the module docstring."""

    name: str
    title: str = ""
    exhibit: str = ""  # table heading, e.g. "Figure 11"
    description: str = ""
    kind: str = "tuning"
    cluster: ClusterSpec = PAPER_DISTRIBUTED_CLUSTER
    workloads: Tuple[str, ...] = ()
    algorithm: AlgorithmSpec = AlgorithmSpec(
        name="hyperband", params=(("eta", 3), ("max_epochs", 9))
    )
    systems: Tuple[SystemPolicySpec, ...] = ()
    tenancy: TenancySpec = TenancySpec()
    failures: FailureSpec = FailureSpec()
    repetitions: int = 1
    max_concurrent_trials: int = 16

    def __post_init__(self):
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "systems", tuple(self.systems))

    # -- validation --------------------------------------------------------
    def problems(self) -> List[str]:
        """Every validation issue, in a stable order (empty = valid)."""
        issues: List[str] = []
        if not self.name:
            issues.append("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            issues.append(f"unknown scenario kind {self.kind!r}")
        issues.extend(self.tenancy.problems())
        if self.repetitions < 1:
            issues.append("repetitions must be >= 1")
        if self.max_concurrent_trials < 1:
            issues.append("max_concurrent_trials must be >= 1")
        issues.extend(self.algorithm.problems())
        if self.kind == "analysis":
            return issues  # analysis scenarios plan through their own code
        if not self.workloads:
            issues.append("tuning scenario needs at least one workload")
        bad_algorithm = bool(self.algorithm.problems())
        unknown = [w for w in self.workloads if w not in _KNOWN_WORKLOADS]
        if unknown:
            issues.append(
                f"unknown workload(s) {unknown}; known: {sorted(_KNOWN_WORKLOADS)}"
            )
        if not self.systems:
            issues.append("scenario needs at least one system policy")
        labels = [p.label for p in self.systems]
        if len(set(labels)) != len(labels):
            issues.append(f"duplicate system labels {sorted(labels)}")
        nlp_flags = sorted(
            {
                get_workload(w).uses_embedding
                for w in self.workloads
                if w in _KNOWN_WORKLOADS
            }
        )
        for policy in self.systems:
            issues.extend(self._policy_problems(policy, nlp_flags))
        if not bad_algorithm and not unknown:
            issues.extend(self._algorithm_problems())
        if self.algorithm.name != "hyperband":
            scaled = [
                p.label
                for p in self.systems
                if p.kind in ("v1", "v2", "pipetune")
                and p.effective_sample_scale != 1.0
            ]
            if scaled:
                issues.append(
                    f"sample_scale only applies to hyperband; policies {scaled} "
                    f"would silently lose it under {self.algorithm.name!r} — "
                    "set sample_scale=1.0 explicitly"
                )
        if self.tenancy.shared:
            # Numeric tenancy checks live on TenancySpec.problems();
            # only the scenario-level interactions stay here.
            if self.repetitions != 1:
                issues.append(
                    "shared tenancy runs one arrival trace per policy; "
                    "repetitions must be 1 (vary the seed to repeat)"
                )
            if any(p.kind == "fixed" for p in self.systems):
                issues.append("fixed policies cannot run under shared tenancy")
        issues.extend(self.failures.problems())
        return issues

    def _policy_problems(
        self, policy: SystemPolicySpec, nlp_flags: Sequence[bool] = (True,)
    ) -> List[str]:
        where = f"policy {policy.label!r}"
        issues: List[str] = policy.problems(where)
        if policy.kind not in POLICY_KINDS:
            return issues
        if policy.kind == "fixed":
            if not policy.hyper or not policy.system:
                issues.append(f"{where}: fixed policy needs hyper and system params")
            else:
                try:
                    system = policy.system_params()
                except (TypeError, ValueError) as error:
                    issues.append(f"{where}: bad system params ({error})")
                else:
                    if (
                        system.cores > self.cluster.cores_per_node
                        or system.memory_gb > self.cluster.memory_gb_per_node
                    ):
                        issues.append(
                            f"{where}: cluster too small for requested system "
                            f"params ({system.cores} cores / "
                            f"{system.memory_gb:g} GB exceeds a "
                            f"{self.cluster.cores_per_node}-core / "
                            f"{self.cluster.memory_gb_per_node:g} GB node)"
                        )
                try:
                    policy.hyper_params()
                except (TypeError, ValueError) as error:
                    issues.append(f"{where}: bad hyper params ({error})")
            return issues
        # v1 / v2 / pipetune: check space overrides against the space
        # the policy will actually search — for every scenario workload
        # (the NLP space has an extra embedding_dim dimension a non-NLP
        # workload's space lacks) — and system feasibility.
        spaces = [
            joint_space(nlp=nlp) if policy.kind == "v2" else paper_hyper_space(nlp=nlp)
            for nlp in (nlp_flags or (True,))
        ]
        overrides = dict(policy.space_overrides)
        for param, choices in overrides.items():
            if any(param not in space for space in spaces):
                issues.append(
                    f"{where}: space override {param!r} not a "
                    f"{policy.kind} search dimension for every workload"
                )
            if not choices:
                issues.append(f"{where}: space override {param!r} has no choices")
        if policy.kind == "v2":
            system_domains = spaces[0].domains
            cores_choices = overrides.get("cores", system_domains["cores"].values)
            memory_choices = overrides.get(
                "memory_gb", system_domains["memory_gb"].values
            )
            if cores_choices and min(cores_choices) > self.cluster.cores_per_node:
                issues.append(
                    f"{where}: cluster too small for requested system params "
                    f"(smallest cores choice {min(cores_choices)} exceeds a "
                    f"{self.cluster.cores_per_node}-core node)"
                )
            if (
                memory_choices
                and min(memory_choices) > self.cluster.memory_gb_per_node
            ):
                issues.append(
                    f"{where}: cluster too small for requested system params "
                    f"(smallest memory choice {min(memory_choices):g} GB exceeds "
                    f"a {self.cluster.memory_gb_per_node:g} GB node)"
                )
        return issues

    def _algorithm_problems(self) -> List[str]:
        """Dry-build the algorithm once so bad kwargs fail at validation."""
        try:
            self.algorithm.build(paper_hyper_space(nlp=False), seed=0)
        except (TypeError, ValueError) as error:
            return [f"algorithm {self.algorithm.name!r} rejected its params: {error}"]
        return []

    def validate(self) -> "Scenario":
        issues = self.problems()
        if issues:
            raise ScenarioError(self.name, issues)
        return self

    # -- serialisation -----------------------------------------------------
    @classmethod
    def malformed(cls, data, problem: str) -> ScenarioError:
        name = data.get("name", "?") if isinstance(data, Mapping) else "?"
        return ScenarioError(str(name), [problem])

    def replace(self, **changes) -> "Scenario":
        return replace(self, **changes)

    # -- construction ------------------------------------------------------
    @classmethod
    def builder(cls, name: str) -> "ScenarioBuilder":
        return ScenarioBuilder(name)


class ScenarioBuilder:
    """Fluent scenario construction; every method returns the builder."""

    def __init__(self, name: str):
        self._fields: Dict = {"name": name}

    def title(self, title: str) -> "ScenarioBuilder":
        self._fields["title"] = title
        return self

    def exhibit(self, exhibit: str) -> "ScenarioBuilder":
        self._fields["exhibit"] = exhibit
        return self

    def describe(self, description: str) -> "ScenarioBuilder":
        self._fields["description"] = description
        return self

    def kind(self, kind: str) -> "ScenarioBuilder":
        self._fields["kind"] = kind
        return self

    def cluster(
        self, spec: Optional[ClusterSpec] = None, **kwargs
    ) -> "ScenarioBuilder":
        self._fields["cluster"] = spec if spec is not None else ClusterSpec(**kwargs)
        return self

    def paper_cluster(self, distributed: bool = True) -> "ScenarioBuilder":
        self._fields["cluster"] = (
            PAPER_DISTRIBUTED_CLUSTER if distributed else PAPER_SINGLE_NODE
        )
        return self

    def workloads(self, *names: str) -> "ScenarioBuilder":
        self._fields["workloads"] = tuple(names)
        return self

    def workloads_of_type(self, *types: str) -> "ScenarioBuilder":
        names = []
        for workload_type in types:
            names.extend(w.name for w in workloads_of_type(workload_type))
        self._fields["workloads"] = tuple(names)
        return self

    def algorithm(self, name: str, **params) -> "ScenarioBuilder":
        self._fields["algorithm"] = AlgorithmSpec(name=name, params=_pairs(params))
        return self

    def compare(self, *policies: SystemPolicySpec) -> "ScenarioBuilder":
        self._fields["systems"] = tuple(policies)
        return self

    def multi_tenant(self, **kwargs) -> "ScenarioBuilder":
        self._fields["tenancy"] = TenancySpec(mode="shared", **kwargs)
        return self

    def _merge_failures(self, **changes) -> "ScenarioBuilder":
        current = self._fields.get("failures", FailureSpec())
        self._fields["failures"] = replace(current, **changes)
        return self

    def inject_oom(self, threshold: float) -> "ScenarioBuilder":
        return self._merge_failures(oom_threshold=threshold)

    def inject_preemption(self, rate_per_epoch: float, **params) -> "ScenarioBuilder":
        return self._merge_failures(
            preemption=PreemptionSpec(rate_per_epoch=rate_per_epoch, **params)
        )

    def inject_churn(self, rate_per_epoch: float, **params) -> "ScenarioBuilder":
        return self._merge_failures(
            churn=ChurnSpec(rate_per_epoch=rate_per_epoch, **params)
        )

    def inject_crashes(self, rate_per_epoch: float) -> "ScenarioBuilder":
        return self._merge_failures(
            crash=CrashSpec(rate_per_epoch=rate_per_epoch)
        )

    def inject_stragglers(self, fraction: float, **params) -> "ScenarioBuilder":
        return self._merge_failures(
            straggler=StragglerSpec(fraction=fraction, **params)
        )

    def retry_policy(self, max_retries: int, **params) -> "ScenarioBuilder":
        return self._merge_failures(
            retry=RetryPolicy(max_retries=max_retries, **params)
        )

    def repetitions(self, count: int) -> "ScenarioBuilder":
        self._fields["repetitions"] = count
        return self

    def max_concurrent_trials(self, count: int) -> "ScenarioBuilder":
        self._fields["max_concurrent_trials"] = count
        return self

    def build(self, validate: bool = True) -> Scenario:
        scenario = Scenario(**self._fields)
        if validate:
            scenario.validate()
        return scenario
