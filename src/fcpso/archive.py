"""Bounded external archive of non-dominated solutions.

The archive stores the best mutually non-dominated solutions found so
far, evicting by crowding distance when full.  Entries keep their
insertion order in preallocated arrays: each is a row of the position
array and a column of the objective array, which is objective-major
(one row per objective), so a test of every entry reads k contiguous
rows.  Swarm leaders (the gbest of the velocity update) are drawn from
it with binary tournaments that favour isolated entries, a generation's
tournaments in one call.

A candidate's shapes and finiteness are checked first, so a refused
candidate leaves the archive as it was.  Only the dominance test depends
on the objective count, fixed when the archive is built; it yields the
entries a candidate beats.  Dropping them, writing the candidate after
the last entry and evicting on overflow are the same code for any
count, and an entry leaves one way: the entries after it shift down by
one.  With two objectives, a mutually non-dominated set sorted by f1 has
strictly falling f2, a staircase (Kung, Luccio and Preparata, JACM
1975).  The archive keeps that order in plain lists with the index of
each entry: one bisect decides dominance, the entries a candidate beats
are one run of the staircase, and an insertion or an eviction changes
the crowding of its neighbours only, unless it moves an extreme.  With
three or more objectives, dominance is one vectorized test of every
entry, and an eviction and a leader draw each compute the crowding of
the live entries.  One crowding kernel, ``column_crowding``, serves
evictions, the two-objective full recompute and leader draws, and
``crowding_distance`` is its checked form.  Both ways give bitwise the
same crowding, outcomes, entry order and leader draws.
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


def _finite_rows(objectives) -> np.ndarray:
    """The objective vectors as the rows of a float array; a NaN or
    infinite entry raises ValueError."""
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    if not np.isfinite(F).all():
        raise ValueError("objectives must be finite, got a NaN or infinite entry")
    return F


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the points no other point weakly dominates
    (duplicates keep their first occurrence).  A NaN or infinite entry
    raises ValueError."""
    F = _finite_rows(objectives)
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
    """Per-entry crowding distance of a set of objective vectors, one row
    per entry.

    Boundary entries of each objective get +inf; interior entries sum
    normalized gaps between their neighbours, objective by objective.  An
    objective whose values are all equal contributes nothing.  An empty
    set, or a NaN or infinite entry, raises ValueError.
    """
    F = _finite_rows(objectives)
    if F.shape[0] == 0:
        raise ValueError("crowding_distance needs at least one entry")
    return column_crowding(F.T)


def column_crowding(C: np.ndarray) -> np.ndarray:
    """``crowding_distance`` of the entries that are the columns of C,
    one row per objective, unchecked: the archive's kernel.  It is named
    as a public function so that perfbench's layer tracer, which wraps a
    module's public callables, times the archive's crowding."""
    k, m = C.shape
    if m <= 2:
        return np.full(m, np.inf)
    # a stable sort of each row gives the order a per-objective argsort
    # would; offset by its row's start, an index addresses the flat array
    order = C.argsort(axis=1, kind="stable")
    order += np.arange(0, k * m, m)[:, None]
    cs = C.take(order)
    span = cs[:, -1] - cs[:, 0]
    spread = span != 0.0
    sorted_gaps = np.empty((k, m))
    sorted_gaps[:, 1:-1] = (cs[:, 2:] - cs[:, :-2]) / np.where(spread, span, 1.0)[:, None]
    sorted_gaps[:, :: m - 1] = np.where(spread, np.inf, 0.0)[:, None]
    gaps = np.empty(k * m)
    gaps[order] = sorted_gaps
    # a reduction over the outer axis adds the objectives in order, as a
    # per-objective loop does, so the sums are bitwise the same
    return np.add.reduce(gaps.reshape(k, m), axis=0)


class ExternalArchive:
    """Capacity-bounded store of mutually non-dominated entries.

    Entry ``i < len(self)`` is row ``i`` of the position buffer and
    column ``i`` of the objective buffer, which has one row per
    objective; entries keep the order they were inserted in, and
    ``_drop`` is the one way out.  The objective and position counts are
    fixed when the archive is built, and the buffers have one spare
    entry for the candidate that overflows the capacity.

    With two objectives the entries are also a staircase: ``_f1`` and
    ``_f2`` list them by rising f1, and so by falling f2, and ``_stair``
    gives the index of each.  ``_crowding`` then has each entry's
    crowding distance, kept current by every change.  With three or more
    objectives ``_crowded`` computes the crowding of the live entries,
    and ``_crowding`` is unused.
    """

    def __init__(self, capacity: int, n_obj: int, n_var: int):
        for name, value in (("capacity", capacity), ("n_obj", n_obj), ("n_var", n_var)):
            check_count(name, value, 1)
        self.capacity = capacity
        self._n = 0
        self._objectives = np.empty((n_obj, capacity + 1))
        self._positions = np.empty((capacity + 1, n_var))
        self._crowding = np.zeros(capacity + 1)
        # the staircase, kept only at two objectives
        self._f1: list[float] | None = [] if n_obj == 2 else None
        self._f2: list[float] = []
        self._stair: list[int] = []

    def __len__(self) -> int:
        return self._n

    def objectives_array(self) -> np.ndarray:
        """A copy of the entries' objectives, one row per entry."""
        return self._objectives[:, : self._n].T.copy()

    def positions_array(self) -> np.ndarray:
        """A copy of the entries' positions, one row per entry."""
        return self._positions[: self._n].copy()

    def try_insert(self, position: np.ndarray, objectives: np.ndarray) -> str:
        """Insert a copy of a candidate, keeping mutual non-dominance and capacity.

        Returns "dominated" if some entry weakly dominates the candidate
        (duplicates count), "replaced-crowded" if insertion forced a
        crowding eviction, "inserted" otherwise.  Objectives or a position
        of another shape than the archive's vectors, or a non-finite
        objective, raise ValueError before anything else, so the archive is
        left as it was.
        """
        c = np.asarray(objectives, dtype=float)
        x = np.asarray(position, dtype=float)
        held_c, held_x = self._objectives.shape[:1], self._positions.shape[1:]
        if c.shape != held_c or x.shape != held_x:
            raise ValueError(
                f"candidate has objectives {c.shape} and position {x.shape}; the archive holds {held_c} and {held_x}"
            )
        values = c.tolist()
        # a NaN would also break the staircase's order
        if not all(map(isfinite, values)):
            raise ValueError(f"objectives must be finite, got {values}")
        f1, f2, stair = self._f1, self._f2, self._stair
        if f1 is None:
            # one row per objective: a test of every entry is k - 1
            # elementwise ANDs of contiguous rows
            F, col = self._objectives[:, : self._n], c[:, None]
            # weakly dominated (or duplicate) -> reject
            if np.logical_and.reduce(F <= col).any():
                return DOMINATED
            # no entry is <= c, so an entry c is <= everywhere is strictly dominated
            beaten = np.logical_and.reduce(col <= F).nonzero()[0].tolist()
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
        self._objectives[:, n] = c
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
            self._objectives[:, e:n] = self._objectives[:, e + 1 : n + 1]
            self._positions[e:n] = self._positions[e + 1 : n + 1]
            self._n = n
            if self._f1 is not None:
                self._crowding[e:n] = self._crowding[e + 1 : n + 1]
                # in place, as try_insert holds the list
                self._stair[:] = [r if r < e else r - 1 for r in self._stair]

    def _evict(self) -> None:
        """Drop the first of the least crowded entries."""
        e = int(self._crowded().argmin())
        if self._f1 is not None:
            q = bisect_left(self._f1, float(self._objectives[0, e]))
            del self._f1[q], self._f2[q], self._stair[q]
        self._drop([e])
        if self._f1 is not None:
            self._recrowd(q)

    def _crowded(self) -> np.ndarray:
        """The live entries' crowding: kept at two objectives, computed at more."""
        if self._f1 is None:
            return column_crowding(self._objectives[:, : self._n])
        return self._crowding[: self._n]

    def _recrowd(self, q: int) -> None:
        """Bring the crowding up to date after a change at staircase entry q.

        An interior change moves only the gaps of entries q - 1, q and
        q + 1.  A change at either end moves a span, and so every gap.
        The gaps are ``column_crowding``'s float operations in its
        order, so the values are bitwise its own.
        """
        f1, f2 = self._f1, self._f2
        last = len(f1) - 1
        if q <= 0 or q >= last:
            self._crowding[: self._n] = column_crowding(self._objectives[:, : self._n])
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
