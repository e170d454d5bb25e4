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
* a draw is a pure function of (key parts, sigma, shape, index), so
  the bounded memos below can never change a number: evicting and
  rebuilding anything replays the same stream from the key.

Two ``functools.lru_cache`` memos serve the reads. The outer one holds
*windows*, keyed on the read itself (sigma, shape, key reprs, start,
stop), as float tuples (blocks) or read-only arrays (matrix rows): a
repeated read, such as any read of a second in-process exhibit pass,
draws and converts nothing. Its bound counts windows, since a window
is exactly as large as its read. A miss is cut from a small memo of
*streams*, each one key digest whose draws grow by atomic swap: it
redraws the whole longer prefix from the start of its key's stream and
installs the new array in one assignment, so sequential scalar reads
of a trial cost O(1) stream starts. :func:`noise_block` and
:func:`noise_matrix` return cheap, unmemoized handles that only carry
the key. ``lru_cache`` is thread-safe, no drawn array is changed in
place, and each fill draws from its thread's own generator, re-keyed
to the stream and never returned (``spec._keyed_draw``), so threads
that miss one window (or grow one stream) at once compute equal
values.

The stream key deliberately ends in the literal ``"block"`` and never
contains an epoch index — the epoch is a *position* in the stream, not
part of its identity. `repro lint` (DET002) enforces that statically
for every ``noise_block``/``NoiseBlock`` call site.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .spec import _keyed_draw, repr_seed


class _DrawAhead:
    """The first draws of ``rng_for(*key_parts, "block")``, each of
    shape ``shape``, grown by swap as the module docstring describes."""

    __slots__ = ("_key", "_sigma", "_shape", "_draws")

    def __init__(self, sigma: float, shape: Tuple, reprs: Tuple[str, ...]):
        self._key = repr_seed((*reprs, repr("block")))
        self._sigma = sigma
        self._shape = shape
        self._draws = np.empty((0, *shape), dtype=np.float64)

    def ensure(self, count: int) -> np.ndarray:
        """An array of at least ``count`` draws; callers index this
        return value, never ``self._draws``, which another thread may
        replace at any time."""
        draws = self._draws
        if count <= len(draws):
            return draws
        # The first fill covers every paper trial budget (epochs <= 100)
        # after one doubling; rows are wide (one value per PMU event),
        # so matrices start smaller.
        grow_to = max(count, 2 * len(draws), 8 if self._shape else 32)
        shape = (grow_to, *self._shape)
        draws = _keyed_draw(self._key, "normal", 0.0, self._sigma, shape)
        self._draws = draws
        return draws


_stream = lru_cache(maxsize=64)(_DrawAhead)


# One exhibit pass reads 7,060 distinct windows: the bound holds a pass.
@lru_cache(maxsize=16384)
def _window(
    sigma: float, shape: Tuple, reprs: Tuple[str, ...], start: int, stop: int
) -> Union[Tuple[float, ...], np.ndarray]:
    """Draws ``start .. stop - 1`` of a stream: a tuple of floats for
    scalar draws, a read-only ``(stop - start, *shape)`` array for rows.
    Both are copies, so a window never pins its stream's whole prefix."""
    draws = _stream(sigma, shape, reprs).ensure(stop)[start:stop]
    if not shape:
        return tuple(draws.tolist())
    window = draws.copy()
    window.flags.writeable = False
    return window


class NoiseBlock:
    """All draws of one noise kind for one trial, from one stream.

    ``key_parts`` identify the stream exactly as a ``rng_for`` call
    would (stable identities only — spec reprs, trial seeds, kind
    literals); ``sigma`` is the normal scale applied to every draw.
    ``value(epoch)`` is bit-identical to what the ``epoch``-th
    sequential ``normal(0.0, sigma)`` call on the stream would return,
    however the memoized stream grew to cover it. A block is only a
    key: reads go through the module's window memo.
    """

    __slots__ = ("_sigma", "_reprs")

    def __init__(self, sigma: float, key_parts: Tuple):
        self._sigma = float(sigma)
        self._reprs = tuple(map(repr, key_parts))

    def value(self, index: int) -> float:
        """The ``index``-th draw of the stream (0-based), as a float."""
        if index < 0:
            raise ValueError("noise index must be >= 0")
        return _window(self._sigma, (), self._reprs, index, index + 1)[0]

    def prefix(self, count: int) -> List[float]:
        """The first ``count`` draws of the stream, as Python floats:
        element ``i`` equals ``value(i)``."""
        if count < 0:
            raise ValueError("noise prefix length must be >= 0")
        return self.window(0, count)

    def window(self, start: int, stop: int) -> List[float]:
        """``prefix(stop)[start:]``, converting only those draws to floats."""
        if not 0 <= start <= stop:
            raise ValueError("noise window needs 0 <= start <= stop")
        if start == stop:
            return []
        return list(_window(self._sigma, (), self._reprs, start, stop))


class NoiseMatrix:
    """Draw-ahead noise *rows*: one stream, fixed-width vector draws.

    The vector analogue of :class:`NoiseBlock` for consumers that draw a
    fixed-width normal vector per epoch (the PMU draws one value per
    hardware event). Row ``i`` is bit-identical to the ``i``-th
    sequential ``normal(0.0, sigma, size=width)`` call on the stream,
    and :meth:`rows` serves a run of consecutive rows in one slice:
    numpy fills multi-dimensional draws in C order from the same
    underlying double sequence, so growing by whole rows extends the
    stream exactly like the scalar case. Row indices are positions, not
    key parts — keep them dense (small multiples of the epoch), because
    the stream materialises every row up to the largest index asked for.
    """

    __slots__ = ("_sigma", "_shape", "_reprs")

    def __init__(self, sigma: float, width: int, key_parts: Tuple):
        width = int(width)
        if width <= 0:
            raise ValueError("row width must be positive")
        self._sigma = float(sigma)
        self._shape = (width,)
        self._reprs = tuple(map(repr, key_parts))

    def rows(self, start: int, count: int) -> np.ndarray:
        """Rows ``start .. start + count - 1`` as one writable
        ``(count, width)`` copy; row ``k`` is the stream's vector draw
        ``start + k`` (0-based)."""
        if start < 0:
            raise ValueError("noise index must be >= 0")
        if count < 1:
            raise ValueError("row count must be >= 1")
        stop = start + count
        return _window(self._sigma, self._shape, self._reprs, start, stop).copy()


def noise_block(sigma: float, *key_parts) -> NoiseBlock:
    """The :class:`NoiseBlock` handle for ``key_parts``.

    Reads are memoized on ``sigma`` plus the parts' reprs — the same
    identity discipline as :func:`~repro.workloads.spec.stable_seed`,
    so two handles agree on a draw exactly when they would have agreed
    on a stream (``1`` and ``1.0`` are equal and hash alike, but their
    streams differ).
    """
    return NoiseBlock(sigma, key_parts)


def noise_matrix(sigma: float, width: int, *key_parts) -> NoiseMatrix:
    """The :class:`NoiseMatrix` handle for ``key_parts``.

    Same identity discipline as :func:`noise_block`; the row width is
    part of the memo key because it is part of the draw shape.
    """
    return NoiseMatrix(sigma, width, key_parts)


def clear_noise_blocks() -> None:
    """Drop every memoized window and stream (tests / benchmarks; draws
    are pure in their keys, so clearing can never change a result)."""
    _window.cache_clear()
    _stream.cache_clear()
