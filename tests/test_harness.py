"""Tests for the shared experiment harness utilities, and literal pins
of the specs and sessions every paper job is built from."""

import pytest

from repro.hpo.hyperband import HyperBand
from repro.scenarios import (
    PAPER_DISTRIBUTED_CLUSTER,
    PAPER_SINGLE_NODE,
    TRIAL_INIT_S,
    V2_TRIAL_SETUP_S,
    ExperimentResult,
    Scenario,
    build_job_spec,
    mean,
    pipetune,
    seeds_for,
    session_for_cluster,
    tune_v1,
    tune_v2,
)
from repro.simulation.des import Environment
from repro.tune.objectives import accuracy_objective, accuracy_per_time_objective
from repro.workloads.registry import CNN_NEWS20, JACOBI_RODINIA

#: the two paper testbeds: (cluster, a workload of its type, the
#: session's (max_cores, max_memory_gb), cores grid, memory grid).
TESTBEDS = {
    "distributed": (
        PAPER_DISTRIBUTED_CLUSTER,
        CNN_NEWS20,
        (16, 32.0),
        (4, 8, 16),
        (4.0, 8.0, 16.0, 32.0),
    ),
    "single-node": (
        PAPER_SINGLE_NODE,
        JACOBI_RODINIA,
        (8, 24.0),
        (4, 8),
        (4.0, 8.0, 16.0),
    ),
}


class TestExperimentResult:
    def result(self):
        r = ExperimentResult(
            exhibit="Figure X",
            title="demo",
            columns=["name", "value"],
            notes="a note",
        )
        r.add_row(name="a", value=1.5)
        r.add_row(name="b", value=2.25)
        return r

    def test_add_row(self):
        assert self.result().rows == [
            {"name": "a", "value": 1.5},
            {"name": "b", "value": 2.25},
        ]

    def test_format_table_structure(self):
        text = self.result().format_table()
        lines = text.splitlines()
        assert lines[0] == "== Figure X: demo =="
        assert lines[1].split() == ["name", "value"]
        assert set(lines[2]) <= {"-", " "}
        assert lines[3].startswith("a")
        assert lines[-1] == "note: a note"

    def test_format_float_precision(self):
        text = self.result().format_table(float_fmt="{:.1f}")
        assert "2.2" in text and "2.25" not in text


class TestHelpers:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_seeds_for_scaling(self):
        assert seeds_for(1.0, 3) == [0, 1, 2]
        assert seeds_for(0.34, 3) == [0]
        assert seeds_for(0.0, 3) == [0]  # minimum of one seed
        assert seeds_for(2.0, 3) == [0, 1, 2, 3, 4, 5]


def paper_spec(cluster, policy, workload, seed=7, **fields):
    scenario = Scenario(
        name="pin", cluster=cluster, workloads=(workload.name,), systems=(policy,)
    ).replace(**fields)
    session = None
    if policy.kind == "pipetune":
        session = session_for_cluster(cluster, seed=seed)
    return build_job_spec(scenario, policy, workload, seed, session=session)


def assert_paper_hyperband(algorithm, sample_scale, seed=7):
    assert type(algorithm) is HyperBand
    assert (algorithm.max_epochs, algorithm.eta) == (9, 3)
    assert algorithm.sample_scale == sample_scale
    assert algorithm.seed == seed


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
class TestPaperJobSpecs:
    """What ``build_job_spec`` and ``session_for_cluster`` resolve to on
    the paper testbeds: every field here keys a trial id or a random
    stream, so the goldens depend on each literal."""

    def test_v1_spec(self, testbed):
        cluster, workload, *_ = TESTBEDS[testbed]
        spec = paper_spec(cluster, tune_v1(), workload)
        assert spec.name == f"v1-{workload.name}"
        assert spec.system_policy == "v1"
        assert spec.objective is accuracy_objective
        assert spec.trial_setup_s == TRIAL_INIT_S == 20.0
        algorithm = spec.algorithm_factory()
        assert_paper_hyperband(algorithm, 1.0)
        assert "cores" not in algorithm.space

    def test_v2_spec(self, testbed):
        cluster, workload, *_ = TESTBEDS[testbed]
        spec = paper_spec(cluster, tune_v2(), workload)
        assert spec.name == f"v2-{workload.name}"
        assert spec.system_policy == "v2"
        assert spec.objective is accuracy_per_time_objective
        assert spec.trial_setup_s == V2_TRIAL_SETUP_S == 65.0
        algorithm = spec.algorithm_factory()
        assert_paper_hyperband(algorithm, 1.5)
        assert "cores" in algorithm.space
        assert ("embedding_dim" in algorithm.space) == workload.uses_embedding

    def test_pipetune_spec(self, testbed):
        cluster, workload, *_ = TESTBEDS[testbed]
        spec = paper_spec(cluster, pipetune(), workload)
        assert spec.name == f"pipetune-{workload.name}"
        assert spec.system_policy == "hooks"
        assert spec.hooks_factory is not None
        assert spec.objective is accuracy_objective
        assert spec.trial_setup_s == TRIAL_INIT_S
        algorithm = spec.algorithm_factory()
        assert_paper_hyperband(algorithm, 1.0)
        assert "cores" not in algorithm.space

    def test_session_limits_and_grids(self, testbed):
        cluster, _, limits, cores_grid, memory_grid = TESTBEDS[testbed]
        session = session_for_cluster(cluster, seed=3)
        assert (session.max_cores, session.max_memory_gb) == limits
        assert tuple(session.config.cores_grid) == cores_grid
        assert tuple(session.config.memory_grid_gb) == memory_grid

    def test_max_concurrent_trials_reaches_the_spec(self, testbed):
        cluster, workload, *_ = TESTBEDS[testbed]
        spec = paper_spec(cluster, tune_v1(), workload, max_concurrent_trials=2)
        assert spec.max_concurrent == 2


class TestPaperTestbedNodes:
    def test_distributed_testbed_nodes(self):
        nodes = [n.spec for n in PAPER_DISTRIBUTED_CLUSTER.build(Environment()).nodes]
        shapes = [(n.name, n.cores, n.memory_gb) for n in nodes]
        assert shapes == [(f"node{i}", 16, 64.0) for i in range(4)]
        assert {(n.idle_watts, n.core_watts) for n in nodes} == {(60.0, 11.5)}

    def test_single_node_testbed_nodes(self):
        (node,) = PAPER_SINGLE_NODE.build(Environment()).nodes
        spec = node.spec
        assert (spec.name, spec.cores, spec.memory_gb) == ("node0", 8, 24.0)
        assert (spec.idle_watts, spec.core_watts) == (55.0, 10.0)
