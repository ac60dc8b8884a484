"""The run's random stream decoded from raw PCG64 words, a block at a time.

After the swarm is drawn, the generation loop makes many small draws: a
leader tournament and the coefficients per particle, then turbulence and
personal-best coin flips.  numpy's per-call overhead is larger than the
cost of the numbers themselves.  :class:`RandomTape` reads the
generator's raw 64-bit words ``BLOCK`` at a time and decodes the calls the
loop makes, each bitwise what the ``Generator`` returns:

* ``random()`` and ``random(k)`` spend one word per double,
  ``(w >> 11) * 2**-53``;
* ``integers(low, high, size=2)`` is numpy's Lemire multiply-shift over
  32-bit halves, low half first.  A half left over is kept for the next
  ``integers`` call, as PCG64 keeps it, and doubles never consume it.

Any other call raises.  The tape reads ahead, so the wrapped generator
must not draw again.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK", "RandomTape"]

BLOCK = 1024  # raw words read per refill
_MASK32 = 0xFFFFFFFF


class RandomTape:
    """Draws of a PCG64 ``Generator``, served from blocks of its raw words."""

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"a tape decodes PCG64 words, got {type(bit_generator).__name__}")
        if bit_generator.state["has_uint32"]:
            raise ValueError("the generator holds a buffered 32-bit half-word, which a tape would skip")
        self._bit_generator = bit_generator
        self._half: int | None = None  # the high half of a word whose low half was drawn
        self._refill()

    def _refill(self) -> None:
        words = self._bit_generator.random_raw(BLOCK)
        self._words = words.tolist()
        self._doubles = (words >> np.uint64(11)) * 2.0**-53
        self._double_list = self._doubles.tolist()
        self._pos = 0

    def random(self, size: int | None = None):
        """A float in [0, 1), or a 1-D array of ``size`` of them."""
        if size is None:
            if self._pos == BLOCK:
                self._refill()
            self._pos += 1
            return self._double_list[self._pos - 1]
        if not isinstance(size, (int, np.integer)) or size < 0:
            raise ValueError(f"a tape draws random() or random(k) for an integer k >= 0, got {size!r}")
        start, end = self._pos, self._pos + size
        if end <= BLOCK:
            self._pos = end
            return self._doubles[start:end]
        parts = [self._doubles[start:]]
        size -= BLOCK - start
        while size:
            self._refill()
            self._pos = min(size, BLOCK)
            parts.append(self._doubles[: self._pos])
            size -= self._pos
        return np.concatenate(parts)

    def integers(self, low: int, high: int, size: int | None = None) -> tuple[int, int]:
        """Two integers in [low, high); a range of one draws nothing."""
        n = high - low
        if size != 2 or not 0 < n <= _MASK32:
            raise ValueError(
                f"a tape draws integers(low, high, size=2) with 0 < high - low < 2**32, "
                f"got integers({low!r}, {high!r}, size={size!r})"
            )
        if n == 1:
            return low, low
        return low + self._bounded(n), low + self._bounded(n)

    def _bounded(self, n: int) -> int:
        """numpy's ``buffered_bounded_lemire_uint32`` for the range [0, n)."""
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (1 << 32) % n  # numpy's (UINT32_MAX - (n - 1)) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        if self._pos == BLOCK:
            self._refill()
        w = self._words[self._pos]
        self._pos += 1
        self._half = w >> 32
        return w & _MASK32
