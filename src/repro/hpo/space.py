"""Search-space definition for hyper- and system-parameter tuning.

A :class:`SearchSpace` maps parameter names to :class:`Domain` objects.
Domains know how to sample uniformly, enumerate grid points, clip and
normalise values — everything the search algorithms in this package
need, for both continuous and categorical parameters.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

from ..workloads.spec import HyperParams, SystemParams


class Domain:
    """Base class for one parameter's value domain."""

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def grid(self, points: int) -> List:
        raise NotImplementedError

    def contains(self, value) -> bool:
        raise NotImplementedError

    def clip(self, value):
        raise NotImplementedError

    def normalise(self, value) -> float:
        """Map a value into [0, 1] (for GP kernels / GA crossover)."""
        raise NotImplementedError

    def denormalise(self, unit: float):
        raise NotImplementedError


class Uniform(Domain):
    """Continuous uniform domain over ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not low < high:
            raise ValueError("low must be < high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))

    def grid(self, points):
        if points < 1:
            raise ValueError("grid needs >= 1 point")
        if points == 1:
            return [(self.low + self.high) / 2.0]
        return list(np.linspace(self.low, self.high, points))

    def contains(self, value):
        return self.low <= value <= self.high

    def clip(self, value):
        return min(self.high, max(self.low, float(value)))

    def normalise(self, value):
        return (self.clip(value) - self.low) / (self.high - self.low)

    def denormalise(self, unit):
        return self.low + (self.high - self.low) * min(1.0, max(0.0, unit))

    def __repr__(self):
        return f"Uniform({self.low}, {self.high})"


class LogUniform(Domain):
    """Log-scale uniform domain over ``[low, high]`` (both positive)."""

    def __init__(self, low: float, high: float):
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        self.low = float(low)
        self.high = float(high)
        self._log_low = math.log10(low)
        self._log_high = math.log10(high)

    def sample(self, rng):
        return float(10.0 ** rng.uniform(self._log_low, self._log_high))

    def grid(self, points):
        if points < 1:
            raise ValueError("grid needs >= 1 point")
        if points == 1:
            return [10.0 ** ((self._log_low + self._log_high) / 2.0)]
        return [10.0**x for x in np.linspace(self._log_low, self._log_high, points)]

    def contains(self, value):
        return self.low <= value <= self.high

    def clip(self, value):
        return min(self.high, max(self.low, float(value)))

    def normalise(self, value):
        return (math.log10(self.clip(value)) - self._log_low) / (
            self._log_high - self._log_low
        )

    def denormalise(self, unit):
        unit = min(1.0, max(0.0, unit))
        return 10.0 ** (self._log_low + (self._log_high - self._log_low) * unit)

    def __repr__(self):
        return f"LogUniform({self.low}, {self.high})"


class Choice(Domain):
    """Categorical / ordinal domain over an explicit value list."""

    def __init__(self, values: Sequence):
        values = list(values)
        if not values:
            raise ValueError("choice needs at least one value")
        self.values = values

    def sample(self, rng):
        return self.values[int(rng.integers(0, len(self.values)))]

    def grid(self, points):
        if points >= len(self.values):
            return list(self.values)
        idx = np.linspace(0, len(self.values) - 1, points).round().astype(int)
        return [self.values[i] for i in sorted(set(idx.tolist()))]

    def contains(self, value):
        return value in self.values

    def clip(self, value):
        if value in self.values:
            return value
        # Nearest by rank for numeric choices, first value otherwise.
        try:
            return min(self.values, key=lambda v: abs(v - value))
        except TypeError:
            return self.values[0]

    def normalise(self, value):
        try:
            index = self.values.index(value)
        except ValueError:
            index = self.values.index(self.clip(value))
        if len(self.values) == 1:
            return 0.0
        return index / (len(self.values) - 1)

    def denormalise(self, unit):
        unit = min(1.0, max(0.0, unit))
        return self.values[int(round(unit * (len(self.values) - 1)))]

    def __repr__(self):
        return f"Choice({self.values!r})"


class SearchSpace:
    """An ordered mapping of parameter names to domains."""

    def __init__(self, domains: Mapping[str, Domain]):
        if not domains:
            raise ValueError("search space cannot be empty")
        for name, domain in domains.items():
            if not isinstance(domain, Domain):
                raise TypeError(f"domain for {name!r} is not a Domain")
        self.domains: Dict[str, Domain] = dict(domains)

    @property
    def names(self) -> List[str]:
        return list(self.domains)

    def __contains__(self, name: str) -> bool:
        return name in self.domains

    def without(self, *names: str) -> "SearchSpace":
        """A copy of the space with some parameters removed."""
        remaining = {k: v for k, v in self.domains.items() if k not in names}
        return SearchSpace(remaining)

    def sample(self, rng: np.random.Generator) -> Dict:
        return {name: dom.sample(rng) for name, dom in self.domains.items()}

    def grid(self, points_per_dim: int) -> List[Dict]:
        """Full cartesian grid with up to ``points_per_dim`` per axis."""
        axes = [(name, dom.grid(points_per_dim)) for name, dom in self.domains.items()]
        configs: List[Dict] = [{}]
        for name, values in axes:
            configs = [dict(c, **{name: v}) for c in configs for v in values]
        return configs

    def grid_size(self, points_per_dim: int) -> int:
        size = 1
        for dom in self.domains.values():
            size *= len(dom.grid(points_per_dim))
        return size

    def clip(self, config: Mapping) -> Dict:
        return {
            name: dom.clip(config[name]) if name in config else dom.grid(1)[0]
            for name, dom in self.domains.items()
        }

    def normalise(self, config: Mapping) -> np.ndarray:
        return np.array(
            [dom.normalise(config[name]) for name, dom in self.domains.items()]
        )

    def denormalise(self, unit_vector: Iterable[float]) -> Dict:
        values = list(unit_vector)
        if len(values) != len(self.domains):
            raise ValueError("unit vector length mismatch")
        return {
            name: dom.denormalise(values[i])
            for i, (name, dom) in enumerate(self.domains.items())
        }


def paper_hyper_space(nlp: bool = False) -> SearchSpace:
    """The paper's five-hyperparameter space (§7.1.3).

    ``embedding_dim`` only applies to NLP workloads (News20).
    """
    domains: Dict[str, Domain] = {
        "batch_size": Choice([32, 64, 128, 256, 512, 1024]),
        "dropout": Uniform(0.0, 0.5),
        "learning_rate": LogUniform(1e-3, 1e-1),
        "epochs": Choice([10, 20, 40, 70, 100]),
    }
    if nlp:
        domains["embedding_dim"] = Choice([50, 100, 200, 300])
    return SearchSpace(domains)


def paper_system_space() -> SearchSpace:
    """The paper's system-parameter space (§7.1.4)."""
    return SearchSpace(
        {
            "cores": Choice([4, 8, 16]),
            "memory_gb": Choice([4.0, 8.0, 16.0, 32.0]),
        }
    )


def joint_space(nlp: bool = False) -> SearchSpace:
    """Hyper + system space used by the Tune V2 baseline (§4)."""
    domains = dict(paper_hyper_space(nlp=nlp).domains)
    domains.update(paper_system_space().domains)
    return SearchSpace(domains)


def split_config(config: Mapping) -> tuple:
    """Split a flat sampled config into (HyperParams, SystemParams|None)."""
    hyper = HyperParams.from_dict(dict(config))
    if "cores" in config or "memory_gb" in config:
        system = SystemParams.from_dict(dict(config))
    else:
        system = None
    return hyper, system
