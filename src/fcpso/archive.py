"""Bounded external archive of non-dominated solutions.

The archive stores the best mutually non-dominated solutions found so
far, evicting by crowding distance when full.  Entries live in row order
in preallocated objective and position arrays.  Swarm leaders (the gbest
of the velocity update) are drawn from it with binary tournaments that
favour isolated entries, a generation's tournaments in one call.

A candidate's shapes and finiteness are checked first, so a refused
candidate leaves the archive as it was.  Only the dominance test depends
on the objective count, fixed by the first accepted candidate; it yields
the rows a candidate beats.  Dropping them, writing the candidate at the
next row and evicting on overflow are the same code for any count, and a
row leaves one way: the rows after it shift down by one.  With two
objectives, a mutually non-dominated set sorted by f1 has strictly
falling f2, a staircase (Kung, Luccio and Preparata, JACM 1975).  The
archive keeps that order in plain lists with the row of each entry: one
bisect decides dominance, the entries a candidate beats are one run of
the staircase, and an insertion or an eviction changes the crowding of
its neighbours only, unless it moves an extreme.  With three or more
objectives, dominance is one vectorized test against every row, and an
eviction and a leader draw each compute the crowding of the live rows.
Both ways give bitwise the same crowding, outcomes, entry order and
leader draws.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isfinite

import numpy as np

from ._checks import check_count

__all__ = [
    "ExternalArchive",
    "non_dominated_mask",
    "crowding_distance",
]

INSERTED = "inserted"
DOMINATED = "dominated"
REPLACED_CROWDED = "replaced-crowded"


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the points no other point weakly dominates
    (duplicates keep their first occurrence).  A NaN or infinite entry
    raises ValueError."""
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    if not np.isfinite(F).all():
        raise ValueError("objectives must be finite, got a NaN or infinite entry")
    n = F.shape[0]
    # point b goes when some point a weakly dominates it and either beats
    # it somewhere or is an earlier duplicate; rows go in blocks of about
    # 2**20 coordinate comparisons, to bound memory
    keep = np.ones(n, dtype=bool)
    index = np.arange(n)
    block = max(1, (1 << 20) // max(1, n * F.shape[1]))
    for start in range(0, n, block):
        rows = F[start:start + block, None, :]
        le = (F <= rows).all(axis=2)
        earlier = index < index[start:start + block, None]
        keep[start:start + block] = ~(le & ((F < rows).any(axis=2) | earlier)).any(axis=1)
    return keep


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Per-entry crowding distance of a set of objective vectors.

    Boundary entries of each objective get +inf; interior entries sum
    normalized gaps between their neighbours, objective by objective.  An
    objective whose values are all equal contributes nothing.
    """
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    m, k = F.shape
    if m == 0:
        raise ValueError("crowding_distance needs at least one entry")
    if m <= 2:
        return np.full(m, np.inf)
    # a stable sort of each column gives the order a per-objective
    # argsort would
    order = np.argsort(F, axis=0, kind="stable")
    cols = np.arange(k)
    fs = F[order, cols]
    span = fs[-1] - fs[0]
    spread = span != 0.0
    sorted_gaps = np.empty((m, k))
    sorted_gaps[1:-1] = (fs[2:] - fs[:-2]) / np.where(spread, span, 1.0)
    sorted_gaps[0] = sorted_gaps[-1] = np.where(spread, np.inf, 0.0)
    gaps = np.empty((m, k))
    gaps[order, cols] = sorted_gaps
    # add the objectives in order, as a per-objective loop does, so the
    # sums are bitwise the same
    d = gaps[:, 0].copy()
    for j in range(1, k):
        d += gaps[:, j]
    return d


class ExternalArchive:
    """Capacity-bounded store of mutually non-dominated entries.

    Row ``i < len(self)`` of the objective and position buffers is entry
    ``i``; entries keep the order they were inserted in, and ``_drop``
    is the one way out.  The buffers have one spare row for the
    candidate that overflows the capacity.

    With two objectives the entries are also a staircase: ``_f1`` and
    ``_f2`` list them by rising f1, and so by falling f2, and ``_stair``
    gives the row of each.  ``_crowding`` then has each row's crowding
    distance, kept current by every change.  With three or more
    objectives ``_crowded`` computes the crowding of the live rows, and
    ``_crowding`` is unused.
    """

    def __init__(self, capacity: int = 100):
        check_count("capacity", capacity, 1)
        self.capacity = capacity
        self._n = 0
        # allocated by the first insertion, which fixes both dimensions
        self._objectives: np.ndarray | None = None
        self._positions: np.ndarray | None = None
        self._crowding = np.zeros(capacity + 1)
        # the staircase; _f1 stays None unless the first candidate has
        # two objectives
        self._f1: list[float] | None = None
        self._f2: list[float] = []
        self._stair: list[int] = []

    def __len__(self) -> int:
        return self._n

    def objectives_array(self) -> np.ndarray:
        """A copy of the entries' objectives, one row per entry."""
        if self._objectives is None:
            return np.empty((0, 0))
        return self._objectives[: self._n].copy()

    def positions_array(self) -> np.ndarray:
        """A copy of the entries' positions, one row per entry."""
        if self._positions is None:
            return np.empty((0, 0))
        return self._positions[: self._n].copy()

    def try_insert(self, position: np.ndarray, objectives: np.ndarray) -> str:
        """Insert a copy of a candidate, keeping mutual non-dominance and capacity.

        Returns "dominated" if some entry weakly dominates the candidate
        (duplicates count), "replaced-crowded" if insertion forced a
        crowding eviction, "inserted" otherwise.  Objectives or a position
        that are not one vector each, or a non-finite objective, raise
        ValueError before anything else, so the archive is left as it was.
        """
        c = np.asarray(objectives, dtype=float)
        x = np.asarray(position, dtype=float)
        if c.ndim != 1 or x.ndim != 1:
            raise ValueError(f"candidate has objectives {c.shape} and position {x.shape}; each must be one vector")
        values = c.tolist()
        # a NaN would also break the staircase's order
        if not all(map(isfinite, values)):
            raise ValueError(f"objectives must be finite, got {values}")
        if self._objectives is None:
            self._objectives = np.empty((self.capacity + 1, *c.shape))
            self._positions = np.empty((self.capacity + 1, *x.shape))
            if c.shape == (2,):
                self._f1 = []
        elif c.shape != self._objectives.shape[1:] or x.shape != self._positions.shape[1:]:
            raise ValueError(
                f"candidate has objectives {c.shape} and position {x.shape}; the archive holds "
                f"{self._objectives.shape[1:]} and {self._positions.shape[1:]}"
            )
        f1, f2, stair = self._f1, self._f2, self._stair
        if f1 is None:
            F = self._objectives[: self._n]
            # weakly dominated (or duplicate) -> reject
            if (F <= c).all(axis=1).any():
                return DOMINATED
            # no entry is <= c, so an entry c is <= everywhere is strictly dominated
            beaten = np.flatnonzero((c <= F).all(axis=1)).tolist()
        else:
            a, b = values
            p = bisect_right(f1, a)
            # of the entries with f1 <= a, the last has the least f2
            if p and f2[p - 1] <= b:
                return DOMINATED
            # the entries with f1 >= a have falling f2, so those the
            # candidate beats (f2 >= b) are one run from q
            q = end = bisect_left(f1, a)
            while end < len(f2) and f2[end] >= b:
                end += 1
            beaten = stair[q:end]
            del f1[q:end], f2[q:end], stair[q:end]
        self._drop(beaten)
        n = self._n
        self._objectives[n] = c
        self._positions[n] = x
        self._n = n + 1
        if f1 is not None:
            f1.insert(q, a)
            f2.insert(q, b)
            stair.insert(q, n)
            self._recrowd(q)
        if self._n <= self.capacity:
            return INSERTED
        self._evict()
        return REPLACED_CROWDED

    def _drop(self, rows: list[int]) -> None:
        """Drop the entries in ``rows``, already off the staircase, highest
        first: the rows after each shift down by one and are renumbered."""
        for e in sorted(rows, reverse=True):
            n = self._n - 1
            self._objectives[e:n] = self._objectives[e + 1 : n + 1]
            self._positions[e:n] = self._positions[e + 1 : n + 1]
            self._n = n
            if self._f1 is not None:
                self._crowding[e:n] = self._crowding[e + 1 : n + 1]
                # in place, as try_insert holds the list
                self._stair[:] = [r if r < e else r - 1 for r in self._stair]

    def _evict(self) -> None:
        """Drop the first of the least crowded entries."""
        e = int(np.argmin(self._crowded()))
        if self._f1 is not None:
            q = bisect_left(self._f1, float(self._objectives[e, 0]))
            del self._f1[q], self._f2[q], self._stair[q]
        self._drop([e])
        if self._f1 is not None:
            self._recrowd(q)

    def _crowded(self) -> np.ndarray:
        """The live rows' crowding: kept at two objectives, computed at more."""
        if self._f1 is None:
            return crowding_distance(self._objectives[: self._n])
        return self._crowding[: self._n]

    def _recrowd(self, q: int) -> None:
        """Bring the crowding up to date after a change at staircase entry q.

        An interior change moves only the gaps of entries q - 1, q and
        q + 1.  A change at either end moves a span, and so every gap.
        The gaps are ``crowding_distance``'s float operations in its
        order, so the values are bitwise its own.
        """
        f1, f2 = self._f1, self._f2
        last = len(f1) - 1
        if q <= 0 or q >= last:
            self._crowding[: self._n] = crowding_distance(self._objectives[: self._n])
            return
        # the ends keep their inf
        for i in range(max(q - 1, 1), min(q + 2, last)):
            d = (f1[i + 1] - f1[i - 1]) / (f1[-1] - f1[0]) + (f2[i - 1] - f2[i + 1]) / (f2[0] - f2[-1])
            self._crowding[self._stair[i]] = d

    def select_leaders(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` binary tournaments on crowding distance (larger wins,
        a tie random), one per row of the returned copy of the winners'
        positions.

        Draws, in order: ``rng.integers(0, n, size=(count, 2))``, the pairs
        over the n entries, then ``rng.random(count)``; on equal crowding,
        tournament i takes the first entry of its pair when its draw is
        below 1/2.  Every tournament draws its tie-break, tie or not.
        """
        n = self._n
        if not n:
            raise ValueError("cannot select a leader from an empty archive")
        pairs = rng.integers(0, n, size=(count, 2))
        ties = rng.random(count)
        a, b = self._crowded()[pairs].T
        first = np.where(a == b, ties < 0.5, a > b)
        return self._positions[np.where(first, pairs[:, 0], pairs[:, 1])]
