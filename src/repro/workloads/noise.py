"""Batched draw-ahead noise streams: one keyed stream per (trial, kind).

Before this layer, every per-epoch noise value cost one fresh Philox
stream: ``rng_for(name, "epoch-noise", hp, sp, epoch)`` built a
generator for a *single* normal draw. The one-generator-per-draw call
shape was the remaining floor (ROADMAP, "Batched draw-ahead").

:class:`NoiseBlock` collapses it: all of a trial's draws for one noise
*kind* come from **one** counter-keyed stream,

```
stream = rng_for(*key_parts, "block")        # e.g. (name, "epoch-noise", hp, sp)
draws  = stream.normal(0.0, sigma, size=n)   # the whole trial at once
```

and consumers read it back: a scalar ``value(epoch)``, or one
``prefix(n)`` or ``window(i, j)`` of Python floats per trial segment,
which the epoch loop then only indexes. Two properties make this
exact rather than approximate:

* numpy Generators fill batched draws sequentially, so
  ``normal(size=n)`` is bit-identical to ``n`` scalar ``normal()``
  calls on the same stream, and its first ``m`` values are exactly
  ``normal(size=m)``. ``tests/test_noise_block.py`` holds numpy to
  both properties.
* a block's values are a pure function of (key parts, sigma, index):
  evicting and rebuilding a block replays the same stream from the
  key, so the bounded memos behind :func:`noise_block` and
  :func:`noise_matrix` can never change a number.

A block digests its Philox key once, at construction. It grows by
atomic swap: a block that must cover more draws redraws the whole
longer prefix from a fresh stream on that key, installs the new array
in one assignment, and serves the read from that local array. A
drawn array is never changed in place and no generator is shared, so
threads reading one block concurrently (the service runs serial jobs
on several threads) can at worst both redraw and install an equally
correct prefix.

The stream key deliberately ends in the literal ``"block"`` and never
contains an epoch index — the epoch is a *position* in the stream, not
part of its identity. `repro lint` (DET002) enforces that statically
for every ``noise_block``/``NoiseBlock`` call site.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .spec import philox_generator, repr_seed


class _DrawAhead:
    """The first draws of ``rng_for(*key_parts, "block")``, each of
    shape ``shape``, grown by swap as the module docstring describes."""

    __slots__ = ("_key", "_sigma", "_shape", "_draws")

    #: draws materialised by the first growth step.
    _INITIAL = 1

    def __init__(self, sigma: float, key_parts: Tuple, shape: Tuple = ()):
        self._keyed(sigma, tuple(map(repr, key_parts)), shape)

    def _keyed(self, sigma: float, reprs: Tuple[str, ...], shape: Tuple):
        """Initialise from the key parts' reprs; returns ``self``."""
        if any(n <= 0 for n in shape):
            raise ValueError("row width must be positive")
        self._key = repr_seed((*reprs, repr("block")))
        self._sigma = float(sigma)
        self._shape = shape
        self._draws = np.empty((0, *shape), dtype=np.float64)
        return self

    def _ensure(self, count: int) -> np.ndarray:
        """An array of at least ``count`` draws; callers index this
        return value, never ``self._draws``, which another thread may
        replace at any time."""
        draws = self._draws
        if count <= len(draws):
            return draws
        grow_to = max(count, 2 * len(draws), self._INITIAL)
        stream = philox_generator(self._key)
        draws = stream.normal(0.0, self._sigma, size=(grow_to, *self._shape))
        self._draws = draws
        return draws


class NoiseBlock(_DrawAhead):
    """All draws of one noise kind for one trial, from one stream.

    ``key_parts`` identify the stream exactly as a ``rng_for`` call
    would (stable identities only — spec reprs, trial seeds, kind
    literals); ``sigma`` is the normal scale applied to every draw.
    Draws are materialised ahead in geometrically-growing prefixes and
    served by index: ``value(epoch)`` is bit-identical to what the
    ``epoch``-th sequential ``normal(0.0, sigma)`` call on the stream
    would return, however the block grew to cover it.
    """

    __slots__ = ()

    #: covers every paper trial budget (epochs <= 100) after one
    #: doubling, while keeping throwaway blocks (single epoch-0 probes)
    #: at one cheap 32-draw fill.
    _INITIAL = 32

    def value(self, index: int) -> float:
        """The ``index``-th draw of the stream (0-based), as a float."""
        if index < 0:
            raise ValueError("noise index must be >= 0")
        return float(self._ensure(index + 1)[index])

    def prefix(self, count: int) -> List[float]:
        """The first ``count`` draws of the stream, as Python floats:
        element ``i`` equals ``value(i)``."""
        if count < 0:
            raise ValueError("noise prefix length must be >= 0")
        return self._ensure(count)[:count].tolist()

    def window(self, start: int, stop: int) -> List[float]:
        """``prefix(stop)[start:]``, converting only those draws to floats."""
        if not 0 <= start <= stop:
            raise ValueError("noise window needs 0 <= start <= stop")
        return self._ensure(stop)[start:stop].tolist()


class NoiseMatrix(_DrawAhead):
    """Draw-ahead noise *rows*: one stream, fixed-width vector draws.

    The vector analogue of :class:`NoiseBlock` for consumers that draw a
    fixed-width normal vector per epoch (the PMU draws one value per
    hardware event). ``row(i)`` is bit-identical to the ``i``-th
    sequential ``normal(0.0, sigma, size=width)`` call on the stream
    (and :meth:`rows` serves a run of consecutive rows in one slice):
    numpy fills multi-dimensional draws in C order from the same
    underlying double sequence, so growing by whole rows extends the
    stream exactly like the scalar case. Row indices are positions, not
    key parts — keep them dense (small multiples of the epoch), because
    the matrix materialises every row up to the largest index asked for.
    """

    __slots__ = ()

    #: rows are wide (one value per PMU event), so start smaller than
    #: the scalar blocks.
    _INITIAL = 8

    def __init__(self, sigma: float, width: int, key_parts: Tuple):
        super().__init__(sigma, key_parts, (int(width),))

    def row(self, index: int) -> np.ndarray:
        """The ``index``-th vector draw of the stream (0-based)."""
        return self.rows(index, 1)[0]

    def rows(self, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start + count - 1`` as one ``(count, width)``
        copy; row ``k`` of the result equals ``row(start + k)``."""
        if start < 0:
            raise ValueError("noise index must be >= 0")
        if count < 1:
            raise ValueError("row count must be >= 1")
        return self._ensure(start + count)[start : start + count].copy()


def noise_block(sigma: float, *key_parts) -> NoiseBlock:
    """The (memoized) :class:`NoiseBlock` for ``key_parts``.

    The memo key is ``sigma`` plus the parts' reprs — the same identity
    discipline as :func:`~repro.workloads.spec.stable_seed`, so two
    calls agree on a block exactly when they would have agreed on a
    stream (``1`` and ``1.0`` are equal and hash alike, but their
    streams differ).
    """
    return _block(float(sigma), tuple(map(repr, key_parts)))


def noise_matrix(sigma: float, width: int, *key_parts) -> NoiseMatrix:
    """The (memoized) :class:`NoiseMatrix` for ``key_parts``.

    Same identity discipline as :func:`noise_block`; the row width is
    part of the memo key because it is part of the draw shape.
    """
    return _matrix(float(sigma), int(width), tuple(map(repr, key_parts)))


# Both memos evict least-recently-used first. Blocks are pure in their
# key, so an evicted block is rebuilt with identical values: eviction
# costs a redraw, never a different number. Two threads missing on one
# key at once may both build it; either block reads the same stream.
@lru_cache(maxsize=1024)
def _block(sigma: float, reprs: Tuple[str, ...]) -> NoiseBlock:
    return NoiseBlock.__new__(NoiseBlock)._keyed(sigma, reprs, ())


@lru_cache(maxsize=1024)
def _matrix(sigma: float, width: int, reprs: Tuple[str, ...]) -> NoiseMatrix:
    return NoiseMatrix.__new__(NoiseMatrix)._keyed(sigma, reprs, (width,))


def clear_noise_blocks() -> None:
    """Drop every memoized block and matrix (tests / benchmarks; values
    are pure in their keys, so clearing can never change a result)."""
    _block.cache_clear()
    _matrix.cache_clear()
