"""Canonical baseline/job builders shared by every scenario.

This module is the single implementation of "build the paper's Tune V1
/ Tune V2 / PipeTune job specs and run them on a dedicated cluster".
The :class:`~repro.scenarios.runner.ScenarioRunner` composes these
builders from declarative :class:`~repro.scenarios.spec.Scenario`
objects; the CLI's ``tune`` command and the examples reach them
through the same front door, so every caller constructs
byte-identical specs (same spec names, same search spaces, same
seeds — hence the same random streams).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.pipetune import PipeTuneConfig, PipeTuneSession
from ..hpo.hyperband import HyperBand
from ..hpo.space import joint_space, paper_hyper_space
from ..simulation.cluster import (
    paper_distributed_cluster,
    paper_single_node,
)
from ..simulation.des import Environment
from ..tune.objectives import accuracy_objective, accuracy_per_time_objective
from ..tune.runner import HptJobSpec, HptResult, run_hpt_job
from ..workloads.spec import (
    PAPER_CORE_GRID,
    PAPER_MEMORY_GRID_GB,
    WorkloadSpec,
)

#: HyperBand budget used throughout the evaluation (rungs 1/3/9 epochs).
HYPERBAND_MAX_EPOCHS = 9
HYPERBAND_ETA = 3
#: Tune V2 explores a larger space: proportionally more samples (§7.3).
V2_SAMPLE_SCALE = 1.5
#: per-trial job-submission/initialisation overhead every system pays
#: (the "Init" phase visible in the paper's Fig 2).
TRIAL_INIT_S = 20.0
#: extra executor-restart cost Tune V2 pays per resource-reshaped
#: trial (§4: trial resources "manually controlled"); V1 and PipeTune
#: keep warm executors (PipeTune reshapes in place).
V2_TRIAL_SETUP_S = TRIAL_INIT_S + 45.0


def make_v1_spec(workload: WorkloadSpec, seed: int = 0, **kwargs) -> HptJobSpec:
    """Tune V1: HyperBand over hyperparameters, accuracy objective."""
    space = paper_hyper_space(nlp=workload.uses_embedding)
    return HptJobSpec(
        workload=workload,
        algorithm_factory=lambda: HyperBand(
            space, max_epochs=HYPERBAND_MAX_EPOCHS, eta=HYPERBAND_ETA, seed=seed
        ),
        objective=accuracy_objective,
        system_policy="v1",
        trial_setup_s=TRIAL_INIT_S,
        name=f"v1-{workload.name}",
        **kwargs,
    )


def make_v2_spec(
    workload: WorkloadSpec,
    seed: int = 0,
    max_memory_gb: float = 32.0,
    **kwargs,
) -> HptJobSpec:
    """Tune V2: system params join the space, ratio objective."""
    space = joint_space(nlp=workload.uses_embedding)
    return HptJobSpec(
        workload=workload,
        algorithm_factory=lambda: HyperBand(
            space,
            max_epochs=HYPERBAND_MAX_EPOCHS,
            eta=HYPERBAND_ETA,
            sample_scale=V2_SAMPLE_SCALE,
            seed=seed,
        ),
        objective=accuracy_per_time_objective,
        system_policy="v2",
        trial_setup_s=V2_TRIAL_SETUP_S,
        name=f"v2-{workload.name}",
        **kwargs,
    )


def make_pipetune_session(
    distributed: bool = True,
    config: Optional[PipeTuneConfig] = None,
    seed: int = 0,
) -> PipeTuneSession:
    """A PipeTune session sized for one of the two paper testbeds."""
    if distributed:
        return PipeTuneSession(
            config=config, max_cores=16, max_memory_gb=32.0, seed=seed
        )
    session = PipeTuneSession(config=config, max_cores=8, max_memory_gb=24.0, seed=seed)
    if config is None:
        session.config.cores_grid = (4, 8)
        session.config.memory_grid_gb = (4.0, 8.0, 16.0)
    return session


def session_for_cluster(
    nodes: int,
    cores_per_node: int,
    memory_gb_per_node: float,
    config: Optional[PipeTuneConfig] = None,
    seed: int = 0,
) -> PipeTuneSession:
    """A PipeTune session sized for an arbitrary cluster topology.

    Generalises :func:`make_pipetune_session`: per-trial system limits
    are the node's cores and (at most) the paper's 32 GB memory cap,
    and the probing grids are trimmed to what the node can host. On the
    two paper testbeds this reproduces the historical session settings
    exactly (verified by tests/test_scenarios.py).
    """
    max_cores = cores_per_node
    max_memory_gb = min(32.0, memory_gb_per_node)
    session = PipeTuneSession(
        config=config, max_cores=max_cores, max_memory_gb=max_memory_gb, seed=seed
    )
    if config is None:
        cores_grid = tuple(c for c in PAPER_CORE_GRID if c <= max_cores)
        memory_grid = tuple(m for m in PAPER_MEMORY_GRID_GB if m <= max_memory_gb)
        if cores_grid and cores_grid != tuple(PAPER_CORE_GRID):
            session.config.cores_grid = cores_grid
        if memory_grid and memory_grid != tuple(PAPER_MEMORY_GRID_GB):
            session.config.memory_grid_gb = memory_grid
    return session


def make_pipetune_spec(
    session: PipeTuneSession, workload: WorkloadSpec, seed: int = 0, **kwargs
) -> HptJobSpec:
    space = paper_hyper_space(nlp=workload.uses_embedding)
    kwargs.setdefault("trial_setup_s", TRIAL_INIT_S)
    return session.job_spec(
        workload,
        algorithm_factory=lambda: HyperBand(
            space, max_epochs=HYPERBAND_MAX_EPOCHS, eta=HYPERBAND_ETA, seed=seed
        ),
        **kwargs,
    )


def fresh_cluster(distributed: bool = True):
    """A new environment + cluster pair for one isolated run."""
    env = Environment()
    cluster = paper_distributed_cluster(env) if distributed else paper_single_node(env)
    return env, cluster


def execute_job(spec: HptJobSpec, distributed: bool = True) -> HptResult:
    """Run one HPT job to completion on a dedicated cluster."""
    env, cluster = fresh_cluster(distributed)
    process = run_hpt_job(env, cluster, spec)
    env.run()
    return process.value


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def seeds_for(scale: float, full: int, minimum: int = 1) -> List[int]:
    """Seed list shrunk by the experiment's scale factor."""
    count = max(minimum, int(round(full * scale)))
    return list(range(count))
