"""Search-space definition for hyper- and system-parameter tuning.

A :class:`SearchSpace` maps parameter names to :class:`Domain` objects.
Domains sample uniformly, for both continuous and categorical
parameters; sampling is all the search algorithms in this package
need.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ..workloads.spec import HyperParams, SystemParams


class Domain:
    """Base class for one parameter's value domain."""

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError


class Uniform(Domain):
    """Continuous uniform domain over ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if not low < high:
            raise ValueError("low must be < high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng):
        # numpy's own uniform arithmetic, bit for bit, without the
        # argument handling a scalar rng.uniform call pays.
        return self.low + (self.high - self.low) * rng.random()

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
        span = self._log_high - self._log_low
        return 10.0 ** (self._log_low + span * rng.random())

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
