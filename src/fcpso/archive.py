"""Bounded external archive of non-dominated solutions.

The archive stores the best mutually non-dominated solutions found so
far, evicting by crowding distance when full.  Swarm leaders (the gbest
of the velocity update) are drawn from it with a binary tournament that
favours isolated entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArchiveEntry",
    "ExternalArchive",
    "dominates",
    "non_dominated_mask",
    "crowding_distance",
]

INSERTED = "inserted"
DOMINATED = "dominated"
REPLACED_CROWDED = "replaced-crowded"


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Minimization dominance: a <= b everywhere and a < b somewhere."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective dimensions differ: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of the points no other point weakly dominates
    (duplicates keep their first occurrence)."""
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    n = F.shape[0]
    if F.shape[1] == 2:
        # lexicographic sweep: a point survives iff its f2 beats every
        # earlier (f1, f2)-smaller point's f2
        keep = np.zeros(n, dtype=bool)
        best = np.inf
        for i in np.lexsort((F[:, 1], F[:, 0])):
            if F[i, 1] < best:
                keep[i] = True
                best = F[i, 1]
        return keep
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        fi = F[i]
        le = np.all(F <= fi, axis=1)
        lt = np.any(F < fi, axis=1)
        if np.any(le & lt):
            keep[i] = False
            continue
        dup = le & ~lt  # exact duplicates of fi, including fi itself
        first = int(np.flatnonzero(dup)[0])
        if first != i:
            keep[i] = False
    return keep


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Per-entry crowding distance of a set of objective vectors.

    Boundary entries of each objective get +inf; interior entries sum
    normalized gaps between their neighbours.  An objective whose values
    are all equal contributes nothing.
    """
    F = np.atleast_2d(np.asarray(objectives, dtype=float))
    m, k = F.shape
    if m == 0:
        raise ValueError("crowding_distance needs at least one entry")
    if m <= 2:
        return np.full(m, np.inf)
    d = np.zeros(m)
    for j in range(k):
        order = np.argsort(F[:, j], kind="stable")
        fj = F[order, j]
        span = fj[-1] - fj[0]
        if span == 0.0:
            continue
        d[order[0]] = np.inf
        d[order[-1]] = np.inf
        d[order[1:-1]] += (fj[2:] - fj[:-2]) / span
    return d


@dataclass
class ArchiveEntry:
    position: np.ndarray
    objectives: np.ndarray
    crowding: float = 0.0


class ExternalArchive:
    """Capacity-bounded store of mutually non-dominated entries."""

    def __init__(self, capacity: int = 100):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.entries: list[ArchiveEntry] = []
        self._objs: np.ndarray | None = None  # cache of stacked objectives
        self._crowding_fresh = False

    def __len__(self) -> int:
        return len(self.entries)

    def objectives_array(self) -> np.ndarray:
        if self._objs is None:
            self._objs = np.array([e.objectives for e in self.entries])
        return self._objs

    def positions_array(self) -> np.ndarray:
        return np.array([e.position for e in self.entries])

    def _invalidate(self) -> None:
        self._objs = None
        self._crowding_fresh = False

    def try_insert(self, candidate: ArchiveEntry) -> str:
        """Insert a candidate, keeping mutual non-dominance and capacity.

        Returns "dominated" if some entry weakly dominates the candidate
        (duplicates count), "replaced-crowded" if insertion forced a
        crowding eviction, "inserted" otherwise.
        """
        c = np.asarray(candidate.objectives, dtype=float)
        if self.entries:
            F = self.objectives_array()
            if c.shape[0] != F.shape[1]:
                raise ValueError(
                    f"candidate has {c.shape[0]} objectives, archive holds {F.shape[1]}"
                )
            # weakly dominated (or duplicate) -> reject
            if bool(np.any(np.all(F <= c, axis=1))):
                return DOMINATED
            # drop entries the candidate strictly dominates
            beaten = np.all(c <= F, axis=1) & np.any(c < F, axis=1)
            if np.any(beaten):
                self.entries = [e for e, dead in zip(self.entries, beaten) if not dead]
        self.entries.append(candidate)
        self._invalidate()
        if len(self.entries) <= self.capacity:
            return INSERTED
        self._refresh_crowding()
        worst = min(range(len(self.entries)), key=lambda i: self.entries[i].crowding)
        del self.entries[worst]
        self._invalidate()
        return REPLACED_CROWDED

    def _refresh_crowding(self) -> None:
        if self._crowding_fresh or not self.entries:
            return
        d = crowding_distance(self.objectives_array())
        for e, di in zip(self.entries, d):
            e.crowding = float(di)
        self._crowding_fresh = True

    def select_leader(self, rng: np.random.Generator) -> ArchiveEntry:
        """Binary tournament on crowding distance (larger wins, tie random)."""
        if not self.entries:
            raise ValueError("cannot select a leader from an empty archive")
        self._refresh_crowding()
        i, j = rng.integers(0, len(self.entries), size=2)
        a, b = self.entries[i], self.entries[j]
        if a.crowding > b.crowding:
            return a
        if b.crowding > a.crowding:
            return b
        return a if rng.random() < 0.5 else b

