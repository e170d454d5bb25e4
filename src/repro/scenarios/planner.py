"""Dependency-aware execution planning: plan steps -> chains.

A :class:`~repro.scenarios.runner.ScenarioPlan` is a flat, ordered
list of steps, but not every step is independent: dedicated-tenancy
steps of one PipeTune policy all warm-start and grow the *same*
long-lived session (the per-policy ground-truth database), so they
form an ordered dependency chain — the session state a later step sees
is the one the earlier steps left behind. Everything else (other
policies' jobs, fixed trials, multi-tenant traces, analysis routines)
runs on a fresh environment and a fresh or private session, so each
such step is a chain of its own.

:func:`partition` computes that decomposition. It is the scheduling
contract of every execution backend: a backend may run different
chains concurrently and in any order, but must run the steps *within*
one chain in order, against one shared session. Because the random
streams are counter-keyed on spec reprs and trial ids (PR 3) rather
than on draw order, inter-chain ordering cannot leak into results —
which is what makes :class:`~repro.scenarios.backends.
ProcessPoolBackend` bit-identical to serial execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .runner import JobStep, ScenarioPlan, Step
from .spec import SystemPolicySpec


def chain_policy(step: Step) -> Optional[SystemPolicySpec]:
    """The policy whose shared session this step depends on, if any.

    Only dedicated-tenancy job steps of a ``pipetune`` policy touch a
    session that outlives their own step: the runner shares one
    session per pipetune policy across every such step. Trace steps
    deliberately get a private session per trace and everything else
    never opens one, so they carry no cross-step dependency.
    """
    if isinstance(step, JobStep) and step.policy.kind == "pipetune":
        return step.policy
    return None


@dataclass(frozen=True)
class ExecutionChain:
    """An ordered run of steps that must execute sequentially.

    ``indices`` are positions in the originating plan's step tuple, in
    plan order; outcomes are merged back at exactly these positions
    (:func:`~repro.scenarios.merge.merge_outcomes`), which is why the
    collect phase never notices how chains were scheduled.
    """

    index: int  # chain number, ordered by first step
    indices: Tuple[int, ...]
    steps: Tuple[Step, ...]
    #: True when the steps share one long-lived PipeTune session.
    shares_session: bool

    def __post_init__(self):
        if len(self.indices) != len(self.steps) or not self.steps:
            raise ValueError("chain needs one index per step")
        if list(self.indices) != sorted(self.indices):
            raise ValueError("chain indices must be in plan order")

    @property
    def label(self) -> str:
        kind = "session chain" if self.shares_session else "independent"
        return f"chain {self.index} ({len(self.steps)} step(s), {kind})"


def partition(plan: ScenarioPlan) -> Tuple[ExecutionChain, ...]:
    """Split a plan into its execution chains, ordered by first step.

    Steps that share a PipeTune session group into one chain keeping
    their relative plan order; every other step is a singleton chain.
    The union of all chain indices is exactly ``range(len(steps))``
    with no overlaps — merge relies on it.
    """
    grouped: Dict[SystemPolicySpec, List[int]] = {}
    ordered: List[List[int]] = []
    for position, step in enumerate(plan.steps):
        policy = chain_policy(step)
        if policy is None:
            ordered.append([position])
            continue
        existing = grouped.get(policy)
        if existing is None:
            existing = grouped[policy] = [position]
            ordered.append(existing)
        else:
            existing.append(position)
    shared = {id(indices) for indices in grouped.values()}
    return tuple(
        ExecutionChain(
            index=number,
            indices=tuple(indices),
            steps=tuple(plan.steps[i] for i in indices),
            shares_session=id(indices) in shared,
        )
        for number, indices in enumerate(ordered)
    )


def chain_of_step(
    chains: Tuple[ExecutionChain, ...],
) -> Dict[int, ExecutionChain]:
    """{plan step position -> its chain} for presentation layers."""
    lookup: Dict[int, ExecutionChain] = {}
    for chain in chains:
        for position in chain.indices:
            lookup[position] = chain
    return lookup
