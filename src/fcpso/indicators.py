"""Quality indicators: hypervolume, IGD, additive epsilon, spacing.

All indicators assume minimization.  Hypervolume is exact: a sweep for
two objectives, a dimension sweep over vectorized 2-D union areas for
three, the same areas for every f4-prefix and f3 level in one table for
four, and for five or more a sweep over exclusive contributions of limit
sets that ends in the four-objective table.  The limit sets of a block of
sweep points are filtered for non-dominance in one batch.
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
    F = F[non_dominated_mask(F)]
    if F.shape[1] == 2:
        return _hv_sweep_2d(F, r)
    if F.shape[1] == 3:
        return _hv_3d(F, r)
    if F.shape[1] == 4:
        return float(_hv_4d(F[None], r)[0])
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


def _hv_4d(F: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Hypervolume of each of a batch of 4-objective point sets, F of
    shape (sets, points, 4): a dimension sweep along f4 over the 3-D
    volumes of every f4-prefix, a vectorized base case in the spirit of
    HV4D+ (Guerreiro & Fonseca, IEEE TEVC 2018).

    ``_hv_3d``'s table with one more axis: a (point, set, prefix, f3
    level) table, its points in (f1, f2) order.  A point is in at a cell
    when it is in the prefix and at or below the level; there it stands
    its f2 gap to the reference high, elsewhere 0, as if lifted to the
    reference.  A running maximum along the point axis gives the union's
    height over each f1 width, and the widths, the f3 depths and the f4
    depths reduce the table to the volumes.  Any point sets work,
    dominated points, duplicates and points on the reference's faces
    included, so a set can be padded with copies of r.
    """
    G, n = F.shape[:2]
    sets = np.arange(G)[:, None]
    F = F[sets, np.argsort(F[..., 3], axis=1, kind="stable")]
    depth4 = np.diff(F[..., 3], append=r[3])
    by_f3 = np.argsort(F[..., 2], axis=1, kind="stable")
    depth3 = np.diff(F[sets, by_f3, 2], append=r[2])
    level = np.empty((G, n), dtype=np.intp)
    level[sets, by_f3] = np.arange(n)
    by_f1 = np.lexsort((F[..., 1], F[..., 0]))  # prefix ranks in (f1, f2) order
    width = np.diff(F[sets, by_f1, 0], append=r[0])
    # (point, set, level): the gap of each point at its level and above
    gap = (level[sets, by_f1].T[:, :, None] <= np.arange(n)) * (r[1] - F[sets, by_f1, 1]).T[:, :, None]
    rank = by_f1.T[:, :, None, None]
    total = np.zeros(G)
    block = max(1, (1 << 16) // (G * n * n))  # prefixes per table, to bound memory
    for start in range(0, n, block):
        prefix = np.arange(start, min(n, start + block))[:, None]
        height = (rank <= prefix) * gap[:, :, None, :]
        for j in range(1, n):
            np.maximum(height[j - 1], height[j], out=height[j])
        areas = np.einsum("jgpl,gj->gpl", height, width)
        total += np.einsum("gpl,gl,gp->g", areas, depth3, depth4[:, start:start + block])
    return total


def _hv_limit_sets(F: np.ndarray, r: np.ndarray) -> float:
    """Dimension sweep along the last objective for k >= 5.

    The (k-1)-D slice volume grows by each point's exclusive
    contribution: its box minus the volume of its limit set, the earlier
    points clipped to it (While, Bradstreet & Barone, IEEE TEVC 2012).
    Clipped to point i, point a weakly dominates point b when, in every
    objective, a <= b or a <= i: with the objectives where a <= b as the
    bits of one integer per pair, one (sweep point, a, b) table gives the
    non-dominated limit points of a block of sweep points at once.
    At k = 5 the limit sets go to the 4-D base case in batches of
    similar size, padded with copies of the reference.
    """
    F = F[np.argsort(F[:, -1], kind="stable")]
    head, r_head = F[:, :-1], r[:-1]
    n = F.shape[0]
    index = np.arange(n)
    earlier = index[:, None] < index  # earlier[a, b]: a comes before b
    every = (1 << head.shape[1]) - 1
    below = np.zeros((n, n), dtype=np.min_scalar_type(every))  # bit d: a <= b in objective d
    for d, f in enumerate(head.T):
        below |= (f[:, None] <= f).astype(below.dtype) << d
    kept = np.empty((n, n), dtype=bool)  # kept[i, a]: a is in i's filtered limit set
    block = max(1, (1 << 16) // (n * n))  # sweep points per table, to bound memory
    for start in range(0, n, block):
        sweep = index[start:start + block]
        # le[t, a, b]: clipped to sweep point t, a weakly dominates b
        le = (below | below[:, sweep].T[:, :, None]) == every
        # a limit point goes when another beats it or an earlier one equals it
        member = earlier[:, sweep].T
        kept[sweep] = member & ~(le & (~le.transpose(0, 2, 1) | earlier) & member[:, :, None]).any(axis=1)
    limit = np.zeros(n)
    if head.shape[1] > 4:
        limit[1:] = [_hv_limit_sets(np.maximum(head[kept[i]], head[i]), r_head) for i in range(1, n)]
    else:
        # the limit sets in order of size, the first point's empty one left
        # out, in batches of about 2**16 table cells: each set's points
        # first, the rest of its rows r
        sizes = kept.sum(axis=1)
        order = np.argsort(sizes, kind="stable")[1:]
        while len(order):
            count = 1
            while count < len(order) and (count + 1) * sizes[order[count]] ** 3 <= 1 << 16:
                count += 1
            group, order = order[:count], order[count:]
            first = np.argsort(~kept[group], axis=1, kind="stable")[:, : sizes[group[-1]]]
            inside = np.take_along_axis(kept[group], first, axis=1)[:, :, None]
            points = np.where(inside, np.maximum(head[first], head[group, None]), r_head)
            limit[group] = _hv_4d(points, r_head)
    area = np.cumsum(np.prod(r_head - head, axis=1) - limit)
    return float(np.sum(np.diff(F[:, -1], append=r[-1]) * area))


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
