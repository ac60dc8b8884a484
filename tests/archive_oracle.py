"""The archive as a plain list, for tests only.

``ListArchive`` keeps (position, objectives) pairs in insertion order and
recomputes every crowding distance one objective at a time whenever it
needs one.  ``fcpso.archive.ExternalArchive`` must match it call for
call: the same outcomes, entries, entry order and leaders.
"""

import numpy as np

from fcpso.archive import DOMINATED, INSERTED, REPLACED_CROWDED


def dominates(a, b) -> bool:
    """Minimization dominance: a <= b everywhere and a < b somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))


def crowding_loop(F: np.ndarray) -> np.ndarray:
    """Crowding distance one objective at a time."""
    m, k = F.shape
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


class ListArchive:
    """The archive as a list of (position, objectives) pairs: the
    sequential semantics the array-backed archive must keep, entry order
    and random draws included."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    def __len__(self):
        return len(self.entries)

    def objectives_array(self):
        return np.array([f for _, f in self.entries]) if self.entries else np.empty((0, 0))

    def positions_array(self):
        return np.array([p for p, _ in self.entries]) if self.entries else np.empty((0, 0))

    def try_insert(self, x, y):
        if any(np.all(f <= y) for _, f in self.entries):
            return DOMINATED
        self.entries = [(p, f) for p, f in self.entries if not dominates(y, f)]
        self.entries.append((np.array(x, dtype=float), np.array(y, dtype=float)))
        if len(self.entries) <= self.capacity:
            return INSERTED
        d = self.crowding()
        del self.entries[min(range(len(d)), key=lambda i: d[i])]
        return REPLACED_CROWDED

    def crowding(self):
        return crowding_loop(self.objectives_array())

    def select_leaders(self, rng, count):
        """``ExternalArchive.select_leaders`` one tournament at a time, from
        the same two blocks of draws."""
        d = self.crowding()
        pairs = rng.integers(0, len(self.entries), size=(count, 2))
        ties = rng.random(count)
        leaders = []
        for (i, j), tie in zip(pairs, ties):
            if d[i] > d[j]:
                leaders.append(self.entries[i][0])
            elif d[j] > d[i]:
                leaders.append(self.entries[j][0])
            else:
                leaders.append(self.entries[i][0] if tie < 0.5 else self.entries[j][0])
        return np.array(leaders)
