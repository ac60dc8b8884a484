"""Reference clock: fcpso timings scaled to a fixed host speed.

The benchmark's host is a few cores of a shared machine whose speed per
cycle drifts within seconds: the same 5,000-evaluation solve took 0.26 s
and 0.60 s a few seconds apart, and the median solve of one 30-second
window differed from the next by 20-30% (quartile distance over median).
CPU time drifts the same way, so it is no cure.  A fixed reference loop
slows down with the host: timed between the solves of the same windows,
it moved the ratio of solve time to loop time by only 3-7%.

``RefClock`` times the loop between fcpso calls and, while ``sampling``,
also from a timer signal every ``SAMPLE_EVERY_S`` inside them, so slow
and fast moments of a long call are sampled too.  ``timed`` takes the
loops a timer ran inside a call off that call's time and scales it to
*reference seconds*, by ``REFERENCE_S`` over the mean time of the loops
timed before, during and after the call.  While pool workers compute,
the loops run in the waiting parent and cost the workers about 2% of the
host's cores.  ``REFERENCE_S`` is about what the loop takes on a 2-core
Xeon VM (Python 3.11, numpy 2.4) in its slower moments, so there a
reference second is roughly a wall-clock second.  The loop is the
benchmark's own code, never fcpso's, so a change to fcpso moves the
scaled time by as much as it moves the raw time.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.02
SAMPLE_EVERY_S = 0.5
_ROUNDS = 1_000
_RNG = np.random.default_rng(12345)
_POINTS = _RNG.random((100, 3))
_VECTORS = _RNG.random((40, 30))


def reference_loop() -> float:
    """Run the fixed reference work once and return the CPU time it took
    this thread, in seconds.

    The mix resembles a solve's: per-particle Python (dict, list and float
    work) around numpy operations on small arrays, plus a pairwise
    dominance test on a 100-point, 3-objective set.  CPU time, because a
    loop run while pool workers hold every core waits for one, and that
    wait says nothing of the host's speed.
    """
    start = time.thread_time()
    acc = 0.0
    for i in range(_ROUNDS):
        v = _VECTORS[i % 40] * 0.729 + _VECTORS[(i + 7) % 40] * 1.49445
        np.clip(v, 0.0, 1.0, out=v)
        acc += float(v.sum())
        row = {j: j * i * 0.5 for j in range(12)}
        acc += sorted(row.values())[-1] * 1e-9
        if i % 40 == 0:
            le = np.all(_POINTS[:, None, :] <= _POINTS[None, :, :], axis=2)
            acc += float(np.count_nonzero(le)) * 1e-9
    elapsed = time.thread_time() - start
    if not np.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite sum")
    return elapsed


class RefClock:
    """Samples the host speed between and inside the timed calls of a run."""

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.sampled_s = 0.0  # wall time of the loops run by the timer

    def tick(self) -> None:
        """Time the reference loop once."""
        self.loops.append(reference_loop())

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.tick()
        self.sampled_s += time.perf_counter() - start
        # re-armed only now, so a slow loop cannot queue up signals
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    @contextlib.contextmanager
    def sampling(self):
        """Run the loop from a timer signal while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Call right before a timed call; pass the mark to ``scale``."""
        if not self.loops:
            self.tick()
        return len(self.loops) - 1

    def scale(self, raw_s: float, mark: int) -> float:
        """Call right after the timed call: ``raw_s`` in reference seconds,
        by the mean of the loops timed from ``mark`` (the one before the
        call), during it, and one more timed now.  The mean, not the
        median: the call's duration adds up slow and fast moments alike."""
        self.tick()
        return raw_s * REFERENCE_S / statistics.fmean(self.loops[mark:])

    def timed(self, fn, *args, **kwargs):
        """Call ``fn`` and return its result, its raw seconds less the loops
        the timer ran inside it, and those seconds in reference seconds.
        For a call that computes in this thread: a loop run while pool
        workers compute does not hold them up."""
        mark = self.mark()
        sampled = self.sampled_s
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw_s = time.perf_counter() - start - (self.sampled_s - sampled)
        return result, raw_s, self.scale(raw_s, mark)
