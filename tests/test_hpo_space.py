"""Tests for search-space domains and the SearchSpace container."""

import math

import numpy as np
import pytest

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
from repro.workloads.spec import philox_generator

RNG = np.random.default_rng(0)


def contains(domain, value):
    """Membership in a domain: its value list, or its closed range."""
    if isinstance(domain, Choice):
        return value in domain.values
    return domain.low <= value <= domain.high


class TestUniform:
    def test_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)

    def test_sample_in_range(self):
        dom = Uniform(2.0, 5.0)
        for _ in range(100):
            assert 2.0 <= dom.sample(RNG) <= 5.0

    def test_contains(self):
        dom = Uniform(0.0, 1.0)
        assert contains(dom, 0.5)
        assert not contains(dom, 1.5)

    def test_contains_includes_both_bounds(self):
        dom = Uniform(-1.0, 1.0)
        assert contains(dom, -1.0) and contains(dom, 1.0)
        assert not contains(dom, -1.0001)

    def test_same_seed_same_samples(self):
        dom = Uniform(0.0, 10.0)
        a = [dom.sample(np.random.default_rng(7)) for _ in range(3)]
        b = [dom.sample(np.random.default_rng(7)) for _ in range(3)]
        assert a == b


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

    def test_median_is_near_the_geometric_mean(self):
        dom = LogUniform(1e-4, 1.0)
        rng = np.random.default_rng(1)
        median = float(np.median([dom.sample(rng) for _ in range(1000)]))
        assert 10**-2.5 < median < 10**-1.5

    def test_contains(self):
        dom = LogUniform(1e-3, 1e-1)
        assert contains(dom, 1e-3) and contains(dom, 1e-2) and contains(dom, 1e-1)
        assert not contains(dom, 1e-4)
        assert not contains(dom, 0.5)


class TestScalarUniformsMatchNumpy:
    """``Uniform``/``LogUniform`` spell out numpy's uniform arithmetic
    on one ``random()`` draw; every sampled config keys on the values,
    so they must equal a scalar ``rng.uniform`` bit for bit."""

    @pytest.mark.parametrize("key", [0, 7, (1 << 127) + 12345])
    def test_paper_dropout_and_log_learning_rate(self, key):
        space = paper_hyper_space()
        dropout, lr = space.domains["dropout"], space.domains["learning_rate"]
        ours, ref = philox_generator(key), philox_generator(key)
        log_low, log_high = math.log10(lr.low), math.log10(lr.high)
        for _ in range(5000):
            assert dropout.sample(ours) == float(ref.uniform(0.0, 0.5))
            assert lr.sample(ours) == float(10.0 ** ref.uniform(log_low, log_high))
        assert ours.random() == ref.random()  # still in step


class TestChoice:
    def test_validation(self):
        with pytest.raises(ValueError):
            Choice([])

    def test_sample_from_values(self):
        dom = Choice([32, 64, 128])
        assert all(dom.sample(RNG) in (32, 64, 128) for _ in range(50))

    def test_sample_reaches_every_value(self):
        dom = Choice(["sgd", "adam", "rmsprop", "adagrad"])
        rng = np.random.default_rng(2)
        assert {dom.sample(rng) for _ in range(200)} == set(dom.values)

    def test_single_value_is_always_sampled(self):
        dom = Choice([9])
        assert {dom.sample(RNG) for _ in range(20)} == {9}

    def test_contains(self):
        dom = Choice([4.0, 8.0, "auto"])
        assert contains(dom, 8.0) and contains(dom, "auto")
        assert not contains(dom, 16.0)
        assert not contains(dom, "manual")

    def test_values_are_a_private_copy(self):
        values = [1, 2]
        dom = Choice(values)
        values.append(3)
        assert dom.values == [1, 2]
        assert Choice(v for v in (5, 6)).values == [5, 6]


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

    def test_without(self):
        reduced = self.space().without("b")
        assert "b" not in reduced
        assert set(reduced.names) == {"a", "c"}

    def test_without_leaves_the_original_unchanged(self):
        space = self.space()
        space.without("a", "c")
        assert space.names == ["a", "b", "c"]

    def test_without_every_name_is_rejected(self):
        with pytest.raises(ValueError):
            self.space().without("a", "b", "c")

    def test_names_keep_declaration_order(self):
        space = SearchSpace({"z": Choice([1]), "a": Choice([2]), "m": Choice([3])})
        assert space.names == ["z", "a", "m"]
        assert list(space.sample(RNG)) == ["z", "a", "m"]

    def test_samples_lie_in_their_domains(self):
        space = self.space()
        rng = np.random.default_rng(3)
        for _ in range(50):
            config = space.sample(rng)
            for name, value in config.items():
                assert contains(space.domains[name], value), (name, value)

    def test_same_seed_same_config(self):
        a = self.space().sample(np.random.default_rng(11))
        b = self.space().sample(np.random.default_rng(11))
        assert a == b


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

    def test_hyper_space_samples_build_hyperparams(self):
        rng = np.random.default_rng(4)
        space = paper_hyper_space(nlp=True)
        for _ in range(20):
            config = space.sample(rng)
            hyper, system = split_config(config)
            assert system is None
            assert hyper.batch_size == config["batch_size"]
            assert hyper.epochs == config["epochs"]
            assert hyper.embedding_dim == config["embedding_dim"]

    def test_joint_space_samples_split_into_both_halves(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            config = joint_space().sample(rng)
            hyper, system = split_config(config)
            assert hyper.learning_rate == config["learning_rate"]
            assert system.cores == config["cores"]
            assert system.memory_gb == config["memory_gb"]
        assert "embedding_dim" not in joint_space()

    def test_split_config_rounds_integers(self):
        hyper, system = split_config(
            {"batch_size": 63.7, "epochs": 9.9, "cores": 7.6, "memory_gb": 16}
        )
        assert hyper.batch_size == 64
        assert hyper.epochs == 10
        assert system.cores == 8
