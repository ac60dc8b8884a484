"""Reference hypervolume by recursive slicing, for tests only.

Slice along the last objective at every distinct level and recurse on
the non-dominated projection of the points below it, down to a 2-D
sweep.  Exponential in the objective count, and independent of the
dimension sweeps in ``fcpso.indicators`` and of the vectorized filter in
``fcpso.archive``.
"""

import numpy as np


def non_dominated_mask(F: np.ndarray) -> np.ndarray:
    """Point-by-point filter: a point goes when another beats it or it
    duplicates an earlier one."""
    keep = np.ones(F.shape[0], dtype=bool)
    for i, fi in enumerate(F):
        le = np.all(F <= fi, axis=1)
        lt = np.any(F < fi, axis=1)
        keep[i] = not np.any(le & lt) and int(np.flatnonzero(le & ~lt)[0]) == i
    return keep


def hv_slice(F: np.ndarray, r: np.ndarray) -> float:
    """Hypervolume of a non-dominated set of points strictly inside r."""
    if F.shape[1] == 2:
        # non-dominated 2-D front: ascending f1 means strictly descending f2
        order = np.argsort(F[:, 0], kind="stable")
        widths = np.diff(np.append(F[order, 0], r[0]))
        return float(np.sum(widths * (r[1] - F[order, 1])))
    last = F[:, -1]
    levels = np.unique(last)
    edges = np.append(levels, r[-1])
    total = 0.0
    for i, z in enumerate(levels):
        thickness = edges[i + 1] - edges[i]
        if thickness <= 0.0:
            continue
        active = F[last <= z, :-1]
        active = active[non_dominated_mask(active)]
        total += thickness * hv_slice(active, r[:-1])
    return total


def hv_oracle(front, ref) -> float:
    """Slicer hypervolume of any front: drop the points outside the
    reference box and the dominated ones, then slice."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    r = np.asarray(ref, dtype=float)
    F = F[np.all(F < r, axis=1)]
    if F.shape[0] == 0:
        return 0.0
    return hv_slice(F[non_dominated_mask(F)], r)
