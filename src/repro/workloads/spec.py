"""Workload, hyperparameter and system-parameter descriptions.

Terminology follows the paper (§3.3): a *workload* is a (model,
dataset) pair; *hyperparameters* are model-external knobs fixed before
training; *system parameters* are the configurable resources of the
machine the trial runs on (cores, memory).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Tuple

import numpy as np


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary hashable parts.

    Python's builtin ``hash`` is salted per interpreter run, so every
    stochastic component in the reproduction derives its RNG from this
    digest instead — rerunning any experiment reproduces identical
    numbers (benchmarks/README.md, "Determinism contract").
    """
    return repr_seed(map(repr, parts))


def key_reprs(*parts) -> Tuple[str, ...]:
    """The reprs :func:`stable_seed` hashes for ``parts``: a key prefix
    that :func:`repr_seed` later hashes with the reprs of more parts."""
    return tuple(map(repr, parts))


def repr_seed(reprs: Iterable[str]) -> int:
    """:func:`stable_seed` of parts whose reprs are ``reprs``."""
    digest = hashlib.sha256("\x1f".join(reprs).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def _cache_repr(cls):
    """Memoize a frozen dataclass's generated ``repr`` and ``hash`` per
    instance.

    Every RNG derivation keys its :func:`stable_seed` on spec reprs, and
    every memoized cost term, campaign and fault schedule hashes specs.
    The instances are immutable, so the exact generated string (same
    bytes, hence same digests and random streams) and hash are computed
    once, kept as attributes (reading ``__dict__`` would build a dict
    per instance). Pickles leave both memos out (string hashes differ
    per process); old pickles that carry the repr memo still load.
    """

    def memoized(generated, slot: str):
        def method(self):
            try:
                return getattr(self, slot)
            except AttributeError:
                value = generated(self)
                object.__setattr__(self, slot, value)
                return value

        method.__qualname__ = f"{cls.__qualname__}.{generated.__name__}"
        return method

    def __getstate__(self) -> dict:
        memos = ("_cached_repr", "_cached_hash")
        return {k: v for k, v in self.__dict__.items() if k not in memos}

    cls.__repr__ = memoized(cls.__repr__, "_cached_repr")
    cls.__hash__ = memoized(cls.__hash__, "_cached_hash")
    cls.__getstate__ = __getstate__
    return cls


# ---------------------------------------------------------------------------
# Counter-keyed Philox RNG subsystem
# ---------------------------------------------------------------------------
#
# Every stochastic component derives its stream as
# ``Generator(Philox(key=stable_seed(...)))``: the 63-bit digest keys the
# Philox counter cipher directly, with no SeedSequence entropy-mixing
# stage between digest and stream. The determinism contract (see
# benchmarks/README.md) is defined by that reference construction; the
# adapter below produces bit-identical streams through a cheaper build
# path, and tests/test_rng_philox.py holds it to the reference.
#
# Why not ``np.random.default_rng(seed)``: constructing PCG64 spins up a
# SeedSequence per call (~9µs), and the simulator derives a fresh
# stream per (workload, purpose, trial) tuple, so construction cost
# shows up in every exhibit. ``Philox(key=...)`` still pays for an
# entropy-gathering SeedSequence it then discards; the adapter instead
# builds ``Philox(seed=_KeyedSeed(key))``, where ``_KeyedSeed`` is a
# minimal ISeedSequence stand-in whose ``generate_state`` hands back
# the two key words verbatim (no entropy, no hashing).
#
# Thread-safety rule: a stream is a pure function of its key.
# ``rng_for``/``philox_generator`` build a fresh Philox core per call,
# for streams that escape to their caller. Draws that never escape go
# through ``_keyed_draw``: one generator per thread, re-keyed to the
# fresh-stream state before each draw and never returned, so threads
# (the service runs serial jobs on several threads) never share a core
# and no caller can hold a re-keyed stream. The only module-level
# writes on this path are the construction counter and the
# ``functools.lru_cache`` memos of ``noise.py``, whose values are pure
# in their keys. The subsystem is self-verifying: at import, the keyed
# build and the re-key are compared word-for-word against the reference
# constructor and both are disabled on any mismatch (future numpy
# versions degrade to slow-but-correct, never to different streams).

_MASK64 = (1 << 64) - 1
_PHILOX_KEY_MAX = (1 << 128) - 1


class _KeyedSeed:
    """ISeedSequence stand-in that delivers one preset Philox key.

    ``Philox(seed=...)`` asks its seed sequence for exactly the two
    64-bit key words; handing them back verbatim makes ``Philox(seed=
    _KeyedSeed(key))`` construct the same state as ``Philox(key=key)``
    without the SeedSequence entropy/hash stage.
    """

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = np.array((key & _MASK64, key >> 64), dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise TypeError(
                "unexpected key request; counter-keyed fast path outdated"
            )
        return self.words

    def spawn(self, n_children):
        raise TypeError("rng_for streams do not support seed spawning")


np.random.bit_generator.ISpawnableSeedSequence.register(_KeyedSeed)


def _reference_philox_generator(key: int) -> np.random.Generator:
    """The defining construction: Generator(Philox(key=stable_seed))."""
    return np.random.Generator(np.random.Philox(key=key))


#: total streams started since import (keyed builds, re-keys and
#: reference fallbacks alike). Instrumentation for the batched
#: draw-ahead contract: the per-run construction count is the metric
#: the NoiseBlock layer optimises, so it stays measurable
#: (tests/test_noise_block.py bounds it; benchmarks/README.md records
#: the fig09 A/B).
_CONSTRUCTION_COUNT = 0


def philox_construction_count() -> int:
    """Streams started since import: each :func:`philox_generator`
    build and each :func:`_keyed_draw` re-key counts once."""
    return _CONSTRUCTION_COUNT


def philox_generator(key: int) -> np.random.Generator:
    """A fresh ``Generator(Philox(key=key))``, built the cheap way.

    Streams are bit-identical to :func:`_reference_philox_generator`
    for every key in [0, 2**128); the import-time self-check falls back
    to the reference constructor if the keyed build ever diverges.
    """
    global _CONSTRUCTION_COUNT
    if not 0 <= key <= _PHILOX_KEY_MAX:
        raise ValueError("Philox key must be an integer in [0, 2**128)")
    _CONSTRUCTION_COUNT += 1
    if not _FAST_CONSTRUCTION:
        return _reference_philox_generator(key)
    return np.random.Generator(np.random.Philox(seed=_KeyedSeed(key)))


def _rekey(generator: np.random.Generator, key: int) -> None:
    """Put ``generator`` in the state ``Philox(key=key)`` starts in."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & _MASK64, key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _same_state(ours: dict, ref: dict) -> bool:
    """Whether two Philox state dicts agree word for word."""
    if ours["bit_generator"] != ref["bit_generator"]:
        return False
    pairs = [(ours["state"][f], ref["state"][f]) for f in ("key", "counter")]
    pairs += [
        (ours[f], ref[f]) for f in ("buffer", "buffer_pos", "has_uint32", "uinteger")
    ]
    return all(np.array_equal(a, b) for a, b in pairs)


def _philox_fast_path_ok() -> bool:
    """Verify the keyed build and the re-key against the reference,
    word-for-word; the re-keyed pair first draws under another key."""
    try:
        pair = _reference_philox_generator(7)
        for key in (0, 1, 0x0123456789ABCDEF, (1 << 127) + 12345):
            ref = _reference_philox_generator(key).bit_generator.state
            if not _same_state(np.random.Philox(seed=_KeyedSeed(key)).state, ref):
                return False
            pair.integers(0, 7, size=3, dtype=np.uint32)
            pair.random(3)
            _rekey(pair, key)
            if not _same_state(pair.bit_generator.state, ref):
                return False
        return True
    except Exception:
        return False


_FAST_CONSTRUCTION = _philox_fast_path_ok()
_THREAD = threading.local()


def _keyed_draw(key: int, method: str, *args):
    """``getattr(philox_generator(key), method)(*args)``, drawn without
    building a stream: this thread's one generator is re-keyed to
    ``key`` and drawn from. Only the draw is returned, never the
    generator, so nothing outlives the call on the re-keyed stream."""
    global _CONSTRUCTION_COUNT
    if not _FAST_CONSTRUCTION:
        return getattr(philox_generator(key), method)(*args)
    if not 0 <= key <= _PHILOX_KEY_MAX:
        raise ValueError("Philox key must be an integer in [0, 2**128)")
    _CONSTRUCTION_COUNT += 1
    try:
        generator = _THREAD.generator
    except AttributeError:
        generator = _THREAD.generator = _reference_philox_generator(0)
    _rekey(generator, key)
    return getattr(generator, method)(*args)


def rng_for(*parts) -> np.random.Generator:
    """A numpy Generator on the Philox stream keyed by :func:`stable_seed`."""
    return philox_generator(stable_seed(*parts))


@_cache_repr
@dataclass(frozen=True)
class HyperParams:
    """The five hyperparameters tuned in the paper's evaluation (§7.1.3).

    Ranges (inclusive) as evaluated by the paper:

    * ``batch_size``      — 32 .. 1024
    * ``dropout``         — 0.0 .. 0.5
    * ``embedding_dim``   — 50 .. 300 (NLP workloads only)
    * ``learning_rate``   — 0.001 .. 0.1
    * ``epochs``          — 10 .. 100
    """

    batch_size: int = 32
    dropout: float = 0.25
    embedding_dim: int = 128
    learning_rate: float = 0.01
    epochs: int = 10

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def replace(self, **changes) -> "HyperParams":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, float]:
        return {
            "batch_size": self.batch_size,
            "dropout": self.dropout,
            "embedding_dim": self.embedding_dim,
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
        }

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "HyperParams":
        known = {
            k: values[k]
            for k in (
                "batch_size",
                "dropout",
                "embedding_dim",
                "learning_rate",
                "epochs",
            )
            if k in values
        }
        if "batch_size" in known:
            known["batch_size"] = int(round(known["batch_size"]))
        if "embedding_dim" in known:
            known["embedding_dim"] = int(round(known["embedding_dim"]))
        if "epochs" in known:
            known["epochs"] = int(round(known["epochs"]))
        return cls(**known)


#: nominal clock of the simulated Intel E3 nodes (GHz); the default
#: frequency, so configurations that do not touch DVFS are unchanged.
BASE_CPU_FREQ_GHZ = 3.6


@_cache_repr
@dataclass(frozen=True)
class SystemParams:
    """System parameters tuned by PipeTune (§7.1.4).

    Evaluation ranges: cores in [4, 16], memory in [4, 32] GB.
    ``cpu_freq_ghz`` implements the paper's stated extension ("the same
    mechanisms can be applied to any other parameter of interest (e.g.,
    CPU frequency)"); it defaults to the nominal clock so the core
    experiments are unaffected.
    """

    cores: int = 4
    memory_gb: float = 4.0
    cpu_freq_ghz: float = BASE_CPU_FREQ_GHZ

    def __post_init__(self):
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if not 0.5 <= self.cpu_freq_ghz <= 6.0:
            raise ValueError("cpu_freq_ghz outside plausible DVFS range")

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def as_dict(self) -> Dict[str, float]:
        return {
            "cores": self.cores,
            "memory_gb": self.memory_gb,
            "cpu_freq_ghz": self.cpu_freq_ghz,
        }

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "SystemParams":
        out = {}
        if "cores" in values:
            out["cores"] = int(round(values["cores"]))
        if "memory_gb" in values:
            out["memory_gb"] = float(values["memory_gb"])
        if "cpu_freq_ghz" in values:
            out["cpu_freq_ghz"] = float(values["cpu_freq_ghz"])
        return cls(**out)


# Paper evaluation grids (§7.2): the probing/ground-truth campaign varies
# memory over {4, 8, 16, 32} GB and cores over {4, 8, 16}.
PAPER_CORE_GRID: Tuple[int, ...] = (4, 8, 16)
PAPER_MEMORY_GRID_GB: Tuple[float, ...] = (4.0, 8.0, 16.0, 32.0)
PAPER_BATCH_GRID: Tuple[int, ...] = (32, 64, 512, 1024)


def paper_system_grid() -> Tuple[SystemParams, ...]:
    """The 12-point (cores x memory) grid probed in the paper (§7.2)."""
    return tuple(
        SystemParams(cores=c, memory_gb=m)
        for c in PAPER_CORE_GRID
        for m in PAPER_MEMORY_GRID_GB
    )


@_cache_repr
@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one (model, dataset) workload.

    The cost/accuracy coefficients parameterise the analytic models in
    :mod:`repro.workloads.perfmodel` and :mod:`repro.workloads.accuracy`;
    they are calibrated so that the magnitudes roughly match the paper's
    Table 3 workloads (epoch durations of minutes for Type-I/II, seconds
    for Type-III).
    """

    name: str
    model: str
    dataset: str
    workload_type: str  # "I", "II" or "III"
    datasize_mb: float
    train_files: int
    test_files: int
    # --- cost-model coefficients -------------------------------------
    #: seconds of single-core compute per sample at reference settings
    compute_per_sample: float = 2.0e-3
    #: seconds of synchronisation cost per extra core per weight update
    sync_per_core: float = 1.2e-3
    #: parallel-efficiency exponent: speedup(cores) ~ cores**alpha
    parallel_alpha: float = 0.85
    #: resident working set independent of batch (GB)
    mem_base_gb: float = 1.5
    #: extra working set per sample in the batch (GB)
    mem_per_sample_gb: float = 2.0e-3
    #: slowdown slope when memory is short of the working set
    mem_pressure_slope: float = 1.5
    #: fixed per-epoch overhead (data loading, checkpointing) seconds
    epoch_overhead_s: float = 2.0
    #: is the workload an NLP model with an embedding layer?
    uses_embedding: bool = False
    # --- accuracy-model coefficients ----------------------------------
    #: asymptotic accuracy under ideal hyperparameters, in [0, 1]
    base_accuracy: float = 0.93
    #: convergence-rate constant (per epoch)
    convergence_rate: float = 0.35
    #: log10 of the best learning rate
    log_lr_opt: float = -2.0
    #: width (in log10 lr) of the learning-rate sweet spot
    log_lr_sigma: float = 0.8
    #: accuracy penalty factor per doubling of batch over 32
    batch_penalty: float = 0.035
    #: best dropout value
    dropout_opt: float = 0.25
    #: curvature of the dropout penalty
    dropout_curvature: float = 0.55
    #: best embedding dimension (NLP only)
    embedding_opt: int = 200
    #: trial-to-trial accuracy noise (std, absolute accuracy)
    accuracy_noise: float = 0.004
    #: epoch-to-epoch runtime noise (std, relative)
    runtime_noise: float = 0.02

    def __post_init__(self):
        if self.workload_type not in ("I", "II", "III"):
            raise ValueError("workload_type must be 'I', 'II' or 'III'")
        if not 0 < self.base_accuracy <= 1:
            raise ValueError("base_accuracy must be in (0, 1]")
        if self.train_files < 1:
            raise ValueError("train_files must be >= 1")

    @property
    def key(self) -> str:
        return self.name

    def seed(self, *parts) -> int:
        return stable_seed(self.name, *parts)

    def rng(self, *parts) -> np.random.Generator:
        return rng_for(self.name, *parts)


@_cache_repr
@dataclass(frozen=True)
class TrialConfig:
    """Everything needed to run one training trial."""

    workload: WorkloadSpec
    hyper: HyperParams = field(default_factory=HyperParams)
    system: SystemParams = field(default_factory=SystemParams)

    def replace(self, **changes) -> "TrialConfig":
        return replace(self, **changes)
