"""Tests for search-space domains and the SearchSpace container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpo.space import (
    Choice,
    LogUniform,
    SearchSpace,
    Uniform,
    joint_space,
    paper_hyper_space,
    paper_system_space,
    split_config,
)

RNG = np.random.default_rng(0)


class TestUniform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)

    def test_sample_in_range(self):
        dom = Uniform(2.0, 5.0)
        for _ in range(100):
            assert 2.0 <= dom.sample(RNG) <= 5.0

    def test_grid(self):
        assert Uniform(0.0, 1.0).grid(3) == [0.0, 0.5, 1.0]
        assert Uniform(0.0, 10.0).grid(1) == [5.0]
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0).grid(0)

    def test_clip_and_contains(self):
        dom = Uniform(0.0, 1.0)
        assert dom.clip(2.0) == 1.0
        assert dom.clip(-1.0) == 0.0
        assert dom.contains(0.5)
        assert not dom.contains(1.5)

    @given(st.floats(min_value=-10, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_normalise_denormalise_roundtrip(self, value):
        dom = Uniform(-2.0, 3.0)
        clipped = dom.clip(value)
        assert dom.denormalise(dom.normalise(clipped)) == pytest.approx(clipped)


class TestLogUniform:
    def test_validation(self):
        with pytest.raises(ValueError):
            LogUniform(0.0, 1.0)
        with pytest.raises(ValueError):
            LogUniform(1.0, 0.5)

    def test_sample_in_range(self):
        dom = LogUniform(1e-3, 1e-1)
        for _ in range(100):
            assert 1e-3 <= dom.sample(RNG) <= 1e-1

    def test_samples_spread_over_decades(self):
        dom = LogUniform(1e-4, 1.0)
        samples = [dom.sample(RNG) for _ in range(500)]
        low_decade = sum(1 for s in samples if s < 1e-3)
        assert low_decade > 50  # log-uniform, not uniform

    def test_grid_is_geometric(self):
        grid = LogUniform(1e-3, 1e-1).grid(3)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[1] == pytest.approx(1e-2)
        assert grid[2] == pytest.approx(1e-1)

    @given(st.floats(min_value=1e-5, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, value):
        dom = LogUniform(1e-4, 1.0)
        clipped = dom.clip(value)
        assert dom.denormalise(dom.normalise(clipped)) == pytest.approx(
            clipped, rel=1e-6
        )


class TestChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Choice([])

    def test_sample_from_values(self):
        dom = Choice([32, 64, 128])
        assert all(dom.sample(RNG) in (32, 64, 128) for _ in range(50))

    def test_grid_subsampling(self):
        dom = Choice([1, 2, 3, 4, 5])
        assert dom.grid(10) == [1, 2, 3, 4, 5]
        assert dom.grid(2) == [1, 5]

    def test_clip_nearest_numeric(self):
        dom = Choice([32, 64, 512])
        assert dom.clip(100) == 64
        assert dom.clip(400) == 512

    def test_clip_non_numeric_falls_back(self):
        dom = Choice(["a", "b"])
        assert dom.clip(5) == "a"

    def test_normalise_by_rank(self):
        dom = Choice([10, 20, 30])
        assert dom.normalise(10) == 0.0
        assert dom.normalise(30) == 1.0
        assert dom.denormalise(0.5) == 20

    def test_single_value_normalises_to_zero(self):
        assert Choice([7]).normalise(7) == 0.0


class TestSearchSpace:
    def space(self):
        return SearchSpace(
            {"a": Uniform(0.0, 1.0), "b": Choice([1, 2, 3]), "c": LogUniform(0.01, 1.0)}
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({})

    def test_non_domain_rejected(self):
        with pytest.raises(TypeError):
            SearchSpace({"a": 5})

    def test_sample_covers_all_names(self):
        config = self.space().sample(RNG)
        assert set(config) == {"a", "b", "c"}

    def test_grid_size_is_product(self):
        space = self.space()
        grid = space.grid(3)
        assert len(grid) == 27
        assert space.grid_size(3) == 27
        assert len({tuple(sorted(c.items())) for c in grid}) == 27

    def test_without(self):
        reduced = self.space().without("b")
        assert "b" not in reduced
        assert set(reduced.names) == {"a", "c"}

    def test_normalise_shape(self):
        space = self.space()
        config = space.sample(RNG)
        vec = space.normalise(config)
        assert vec.shape == (3,)
        assert ((0.0 <= vec) & (vec <= 1.0)).all()

    def test_denormalise_length_mismatch(self):
        with pytest.raises(ValueError):
            self.space().denormalise([0.5])

    def test_clip_fills_missing(self):
        clipped = self.space().clip({"a": 5.0})
        assert clipped["a"] == 1.0
        assert "b" in clipped and "c" in clipped


class TestPaperSpaces:
    def test_hyper_space_dimensions(self):
        space = paper_hyper_space()
        assert set(space.names) == {"batch_size", "dropout", "learning_rate", "epochs"}
        nlp = paper_hyper_space(nlp=True)
        assert "embedding_dim" in nlp

    def test_system_space_matches_ranges(self):
        space = paper_system_space()
        assert space.domains["cores"].values == [4, 8, 16]
        assert space.domains["memory_gb"].values == [4.0, 8.0, 16.0, 32.0]

    def test_joint_space_is_union(self):
        joint = joint_space(nlp=True)
        assert set(joint.names) >= {"cores", "memory_gb", "batch_size", "embedding_dim"}

    def test_split_config(self):
        hyper, system = split_config(
            {"batch_size": 64, "learning_rate": 0.01, "cores": 8, "memory_gb": 16.0}
        )
        assert hyper.batch_size == 64
        assert system.cores == 8
        hyper2, system2 = split_config({"batch_size": 128})
        assert system2 is None
        assert hyper2.batch_size == 128

    def test_split_config_rounds_integers(self):
        hyper, system = split_config(
            {"batch_size": 63.7, "epochs": 9.9, "cores": 7.6, "memory_gb": 16}
        )
        assert hyper.batch_size == 64
        assert hyper.epochs == 10
        assert system.cores == 8
