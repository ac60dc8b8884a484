"""Bounded external archive of non-dominated solutions.

The archive stores the best mutually non-dominated solutions found so
far, evicting by crowding distance when full.  Entries live in row order
in preallocated objective and position arrays.  Swarm leaders (the gbest
of the velocity update) are drawn from it with a binary tournament that
favours isolated entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .tape import RandomTape

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
    (duplicates keep their first occurrence)."""
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = F.shape[0]
    if F.shape[1] == 2:
        # lexicographic sweep: a point survives iff its f2 beats every
        # earlier (f1, f2)-smaller point's f2; fmin skips NaNs, where a
        # plain running minimum would turn every later entry NaN
        order = np.lexsort((F[:, 1], F[:, 0]))
        f2 = F[order, 1]
        best_before = np.fmin.accumulate(np.concatenate(([np.inf], f2[:-1])))
        keep = np.empty(n, dtype=bool)
        keep[order] = f2 < best_before
        return keep
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
    ``i``; entries keep the order they were inserted in.  The buffers have
    one spare row for the candidate that overflows the capacity.
    """

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._n = 0
        # allocated by the first insertion, which fixes both dimensions
        self._objectives: np.ndarray | None = None
        self._positions: np.ndarray | None = None
        self._crowding = np.zeros(capacity + 1)
        self._crowding_fresh = False

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
        crowding eviction, "inserted" otherwise.
        """
        c = np.asarray(objectives, dtype=float)
        x = np.asarray(position, dtype=float)
        if self._objectives is None:
            self._objectives = np.empty((self.capacity + 1, *c.shape))
            self._positions = np.empty((self.capacity + 1, *x.shape))
        elif c.shape != self._objectives.shape[1:] or x.shape != self._positions.shape[1:]:
            raise ValueError(
                f"candidate has objectives {c.shape} and position {x.shape}; the archive holds "
                f"{self._objectives.shape[1:]} and {self._positions.shape[1:]}"
            )
        n = self._n
        F = self._objectives[:n]
        # weakly dominated (or duplicate) -> reject
        if (F <= c).all(axis=1).any():
            return DOMINATED
        # no entry is <= c, so an entry c is <= everywhere is strictly dominated
        beaten = (c <= F).all(axis=1)
        if beaten.any():
            n = self._keep(~beaten)
        self._objectives[n] = c
        self._positions[n] = x
        self._n = n + 1
        self._crowding_fresh = False
        if self._n <= self.capacity:
            return INSERTED
        self._refresh_crowding()
        n = self._n
        e = int(np.argmin(self._crowding[:n]))  # first of the least crowded
        self._objectives[e : n - 1] = self._objectives[e + 1 : n]
        self._positions[e : n - 1] = self._positions[e + 1 : n]
        self._n = n - 1
        self._crowding_fresh = False
        return REPLACED_CROWDED

    def _keep(self, mask: np.ndarray) -> int:
        """Compact the entries to those where ``mask`` holds, in order."""
        m = int(np.count_nonzero(mask))
        self._objectives[:m] = self._objectives[: self._n][mask]
        self._positions[:m] = self._positions[: self._n][mask]
        self._n = m
        return m

    def _refresh_crowding(self) -> None:
        if self._crowding_fresh or not self._n:
            return
        self._crowding[: self._n] = crowding_distance(self._objectives[: self._n])
        self._crowding_fresh = True

    def select_leader(self, rng: RandomTape) -> np.ndarray:
        """Binary tournament on crowding distance (larger wins, tie random).

        The pair and the tie-break come from the run's tape, which returns
        what ``Generator.integers(0, n, size=2)`` and ``Generator.random()``
        would.  Returns the winner's position, a view that the next
        insertion may overwrite.
        """
        if not self._n:
            raise ValueError("cannot select a leader from an empty archive")
        self._refresh_crowding()
        i, j = rng.integers(0, self._n, size=2)
        a, b = self._crowding[i], self._crowding[j]
        if a > b:
            return self._positions[i]
        if b > a:
            return self._positions[j]
        return self._positions[i] if rng.random() < 0.5 else self._positions[j]
