"""Theoretical Pareto fronts, generated from closed-form identities.

One builder per suite samples the front of a problem index at m
objectives and returns None where the suite has no closed form.
ZDT1/2/4/6 follow their analytic f2(f1) curves; DTLZ1 samples the
Sigma f = 0.5 simplex, DTLZ2-4 the unit sphere, DTLZ5/6 (3 objectives
only) their degenerate arc.  ZDT3 (a dense curve over f1) and DTLZ7
(m <= 4, a grid over its first m - 1 objectives) keep the points that no
other point of their grid dominates.  WFG4-9 share the concave front
Sigma (f_j / 2j)^2 = 1; WFG1-3 have none.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from .wfg import wfg_scales

__all__ = ["zdt_front", "dtlz_front", "wfg_front", "ZDT6_F1_MIN", "simplex_lattice"]

# Smallest reachable f1 of ZDT6: 1 - max exp(-4 x) sin^6(6 pi x), the
# maximum sitting at x = arctan(9 pi)/(6 pi).
ZDT6_F1_MIN = 0.28077531881536977


def simplex_lattice(m: int, h: int) -> np.ndarray:
    """All compositions of h into m parts (the gaps of m - 1 cuts in h + m - 1 slots) on the unit simplex."""
    cuts = np.array(list(combinations(range(h + m - 1), m - 1)))
    edges = np.pad(cuts, ((0, 0), (1, 1)), constant_values=(-1, h + m - 1))
    return (np.diff(edges, axis=1) - 1) / h


def _lattice_h(m: int, target: int) -> int:
    if m < 2:  # comb(h, 0) == 1 for every h: the search would never end
        raise ValueError(f"a simplex lattice needs at least 2 objectives, got {m!r}")
    h = 1
    while comb(h + 1 + m - 1, m - 1) <= target:
        h += 1
    return h


def _sphere(m: int, n_points: int) -> np.ndarray:
    """The simplex lattice projected onto the positive unit sphere."""
    w = simplex_lattice(m, _lattice_h(m, n_points))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _grid_non_dominated_mask(last: np.ndarray) -> np.ndarray:
    """Non-dominated mask of the points of a grid whose first objectives
    are the grid's (strictly increasing) axes; ``last`` holds the last
    objective, one value per grid cell.

    Another cell can dominate a cell only from below it on every axis, so
    a cell survives exactly when its value is below the minimum over that
    orthant, the cell itself excluded: a running minimum along each axis,
    then the least of those minima one step back along each axis.
    """
    lowest = last
    for axis in range(last.ndim):
        lowest = np.minimum.accumulate(lowest, axis=axis)
    below = np.full(last.shape, np.inf)
    for axis in range(last.ndim):
        into = np.moveaxis(below, axis, 0)  # a view, so writes land in below
        into[1:] = np.minimum(into[1:], np.moveaxis(lowest, axis, 0)[:-1])
    return last < below


def zdt_front(index: int, n_points: int = 1000) -> np.ndarray:
    """Sampled front of ZDT<index>, index in 1-4 or 6."""
    if index == 3:
        f1 = np.linspace(0.0, 1.0, 40 * n_points)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        keep = _grid_non_dominated_mask(f2)
        pts = np.column_stack([f1[keep], f2[keep]])
        return pts[:: max(1, pts.shape[0] // n_points)]
    f1 = np.linspace(ZDT6_F1_MIN if index == 6 else 0.0, 1.0, n_points)
    return np.column_stack([f1, 1.0 - (np.sqrt(f1) if index in (1, 4) else f1**2)])


def dtlz_front(index: int, m: int, n_points: int = 1000) -> np.ndarray | None:
    """Sampled front of DTLZ<index> (1-7) with m objectives, or None for
    DTLZ5/6 at m != 3 and DTLZ7 at m > 4."""
    if index == 1:
        return 0.5 * simplex_lattice(m, _lattice_h(m, n_points))
    if index in (2, 3, 4):
        return _sphere(m, n_points)
    if index in (5, 6):
        if m != 3:
            return None
        theta = np.linspace(0.0, np.pi / 2.0, n_points)
        return np.column_stack(
            [np.cos(theta) * np.cos(np.pi / 4.0), np.cos(theta) * np.sin(np.pi / 4.0), np.sin(theta)]
        )
    if m > 4:  # DTLZ7 from here, sampled at 2-4 objectives
        return None
    side = max(2, int(round(n_points ** (1.0 / (m - 1)))) * 2)
    axes = [np.linspace(0.0, 1.0, side)] * (m - 1)
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m - 1)
    h = m - np.sum(grid / 2.0 * (1.0 + np.sin(3.0 * np.pi * grid)), axis=1)
    pts = np.column_stack([grid, 2.0 * h])
    return pts[_grid_non_dominated_mask(pts[:, -1].reshape((side,) * (m - 1))).ravel()]


def wfg_front(index: int, m: int, n_points: int = 1000) -> np.ndarray | None:
    """Sampled front of WFG<index> (1-9) with m objectives, or None for
    WFG1-3."""
    if index < 4:
        return None
    return _sphere(m, n_points) * wfg_scales(m)
