"""Tests for the shared experiment harness utilities."""

import pytest

from repro.scenarios import (
    TRIAL_INIT_S,
    V2_TRIAL_SETUP_S,
    ExperimentResult,
    fresh_cluster,
    make_pipetune_session,
    make_pipetune_spec,
    make_v1_spec,
    make_v2_spec,
    mean,
    seeds_for,
)
from repro.workloads.registry import CNN_NEWS20, JACOBI_RODINIA, LENET_MNIST


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

    def test_add_and_column(self):
        r = self.result()
        assert r.column("value") == [1.5, 2.25]
        assert r.column("missing") == [None, None]

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

    def test_fresh_cluster_shapes(self):
        _, distributed = fresh_cluster(True)
        _, single = fresh_cluster(False)
        assert len(distributed.nodes) == 4
        assert len(single.nodes) == 1


class TestSpecBuilders:
    def test_v1_spec_shape(self):
        spec = make_v1_spec(LENET_MNIST, seed=1)
        assert spec.system_policy == "v1"
        assert spec.trial_setup_s == TRIAL_INIT_S
        algo = spec.algorithm_factory()
        assert "cores" not in algo.space

    def test_v2_spec_shape(self):
        spec = make_v2_spec(CNN_NEWS20, seed=1)
        assert spec.system_policy == "v2"
        assert spec.trial_setup_s == V2_TRIAL_SETUP_S
        algo = spec.algorithm_factory()
        assert "cores" in algo.space
        assert "embedding_dim" in algo.space  # nlp workload

    def test_v2_setup_cost_exceeds_v1(self):
        assert V2_TRIAL_SETUP_S > TRIAL_INIT_S

    def test_pipetune_spec_uses_session_hooks(self):
        session = make_pipetune_session()
        spec = make_pipetune_spec(session, LENET_MNIST, seed=0)
        assert spec.system_policy == "hooks"
        assert spec.hooks_factory is not None
        assert spec.trial_setup_s == TRIAL_INIT_S

    def test_single_node_session_grids_fit_node(self):
        session = make_pipetune_session(distributed=False)
        assert max(session.config.cores_grid) <= 8
        assert max(session.config.memory_grid_gb) <= 24.0
        assert session.max_cores == 8

    def test_distributed_session_uses_paper_grids(self):
        session = make_pipetune_session(distributed=True)
        assert max(session.config.cores_grid) == 16
        assert max(session.config.memory_grid_gb) == 32.0

    def test_type3_specs_accept_overrides(self):
        spec = make_v1_spec(JACOBI_RODINIA, seed=0, max_concurrent=2)
        assert spec.max_concurrent == 2
