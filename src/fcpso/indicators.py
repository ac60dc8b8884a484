"""Quality indicators: hypervolume, IGD, additive epsilon, spacing.

All indicators assume minimization.  Hypervolume is exact: a sweep for
two objectives, a dimension sweep over vectorized 2-D union areas for
three, and a sweep over exclusive contributions of limit sets for four
or more.
"""

from __future__ import annotations

import logging

import numpy as np

from .archive import non_dominated_mask

logger = logging.getLogger(__name__)

__all__ = [
    "hypervolume",
    "igd",
    "additive_epsilon",
    "spacing",
]


def hypervolume(front: np.ndarray, reference_point: np.ndarray) -> float:
    """Lebesgue measure of the union of boxes [point, reference].

    Points that do not strictly dominate the reference point are
    discarded first; an empty effective front has volume 0.
    """
    F = np.atleast_2d(np.asarray(front, dtype=float))
    r = np.asarray(reference_point, dtype=float)
    if F.shape[1] != r.shape[0]:
        raise ValueError(f"front has {F.shape[1]} objectives, reference point {r.shape[0]}")
    inside = np.all(F < r, axis=1)
    if not inside.all():
        logger.debug("hypervolume: discarding %d points outside the reference box",
                     int(np.count_nonzero(~inside)))
    F = F[inside]
    if F.shape[0] == 0:
        return 0.0
    return float(_hv(F[non_dominated_mask(F)], r))


def _hv(F: np.ndarray, r: np.ndarray) -> float:
    """Hypervolume of points strictly inside r (non-dominated when 2-D)."""
    if F.shape[1] == 2:
        return _hv_sweep_2d(F, r)
    if F.shape[1] == 3:
        return _hv_3d(F, r)
    return _hv_limit_sets(F, r)


def _hv_sweep_2d(F: np.ndarray, r: np.ndarray) -> float:
    # non-dominated 2-D front: ascending f1 means strictly descending f2
    order = np.argsort(F[:, 0], kind="stable")
    f1 = F[order, 0]
    f2 = F[order, 1]
    widths = np.diff(np.append(f1, r[0]))
    return float(np.sum(widths * (r[1] - f2)))


def _hv_3d(F: np.ndarray, r: np.ndarray) -> float:
    """Dimension sweep along f3: each slab between consecutive f3 levels
    has the 2-D union area of the points below it (Fonseca, Paquete &
    Lopez-Ibanez, CEC 2006).

    All of the sweep's union areas come from one (prefix, point) table:
    the points in (f1, f2) order, those above the prefix's level lifted
    to the reference, and a running minimum of f2 along each row.  Any
    point set works, dominated points and duplicates included.
    """
    F = F[np.argsort(F[:, 2], kind="stable")]
    n = F.shape[0]
    depth = np.diff(np.append(F[:, 2], r[2]))
    by_f1 = np.lexsort((F[:, 1], F[:, 0]))  # sweep ranks in (f1, f2) order
    width = np.diff(np.append(F[by_f1, 0], r[0]))
    f2 = F[by_f1, 1]
    total = 0.0
    block = max(1, (1 << 18) // n)  # prefixes per table, to bound memory
    for start in range(0, n, block):
        prefix = np.arange(start, min(n, start + block))[:, None]
        low = np.minimum.accumulate(np.where(by_f1 <= prefix, f2, r[1]), axis=1)
        areas = np.sum(width * (r[1] - low), axis=1)
        total += float(np.sum(depth[start:start + block] * areas))
    return total


def _hv_limit_sets(F: np.ndarray, r: np.ndarray) -> float:
    """Dimension sweep along the last objective for k >= 4.

    The (k-1)-D slice volume grows by each point's exclusive
    contribution: its box minus the volume of its limit set, the earlier
    points clipped to it (While, Bradstreet & Barone, IEEE TEVC 2012).
    """
    F = F[np.argsort(F[:, -1], kind="stable")]
    head, r_head = F[:, :-1], r[:-1]
    depth = np.diff(np.append(F[:, -1], r[-1]))
    boxes = np.prod(r_head - head, axis=1)
    area = total = 0.0
    for i in range(F.shape[0]):
        area += boxes[i]
        if i:
            limits = np.maximum(head[:i], head[i])
            area -= _hv(limits[non_dominated_mask(limits)], r_head)
        total += depth[i] * area
    return total


def igd(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Mean distance from each reference point to its nearest front point."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    R = np.atleast_2d(np.asarray(reference_front, dtype=float))
    _check_nonempty(F, R)
    d = np.sqrt(((R[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


def additive_epsilon(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Smallest shift c such that front - c weakly dominates the reference."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    R = np.atleast_2d(np.asarray(reference_front, dtype=float))
    _check_nonempty(F, R)
    diff = (F[None, :, :] - R[:, None, :]).max(axis=2)  # worst objective per (ref, front) pair
    return float(diff.min(axis=1).max())


def spacing(front: np.ndarray) -> float:
    """Standard deviation of nearest-neighbour Manhattan gaps along the front."""
    F = np.atleast_2d(np.asarray(front, dtype=float))
    n = F.shape[0]
    if n < 2:
        raise ValueError(f"spacing needs at least 2 points, got {n}")
    d = np.abs(F[:, None, :] - F[None, :, :]).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    mean = nearest.mean()
    return float(np.sqrt(np.sum((mean - nearest) ** 2) / (n - 1)))


def _check_nonempty(F: np.ndarray, R: np.ndarray) -> None:
    if F.shape[0] == 0 or R.shape[0] == 0:
        raise ValueError("front and reference front must be non-empty")
    if F.shape[1] != R.shape[1]:
        raise ValueError(f"objective counts differ: front {F.shape[1]}, reference {R.shape[1]}")
