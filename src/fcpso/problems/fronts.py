"""Theoretical Pareto fronts, generated from closed-form identities.

ZDT1/2/4/6 fronts follow their analytic f2(f1) curves; DTLZ1 samples the
Sigma f = 0.5 simplex, DTLZ2-4 the unit sphere, DTLZ5/6 (3 objectives)
their degenerate arc.  ZDT3 (a dense curve over f1) and DTLZ7 (m <= 4, a
grid over its first m - 1 objectives) keep the points that no other
point of their grid dominates.  WFG4-9 share the concave front
Sigma (f_j / 2j)^2 = 1.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = ["theoretical_front", "ZDT6_F1_MIN", "simplex_lattice"]

# Smallest reachable f1 of ZDT6: 1 - max exp(-4 x) sin^6(6 pi x), the
# maximum sitting at x = arctan(9 pi)/(6 pi).
ZDT6_F1_MIN = 0.28077531881536977


def simplex_lattice(m: int, h: int) -> np.ndarray:
    """All compositions of h into m parts, scaled to the unit simplex."""
    rows = []
    for cuts in combinations(range(h + m - 1), m - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(h + m - 2 - prev)
        rows.append(parts)
    return np.array(rows, dtype=float) / h


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
        to = [slice(None)] * last.ndim
        frm = [slice(None)] * last.ndim
        to[axis], frm[axis] = slice(1, None), slice(None, -1)
        below[tuple(to)] = np.minimum(below[tuple(to)], lowest[tuple(frm)])
    return last < below


def _zdt_curve(f1: np.ndarray, kind: str) -> np.ndarray:
    if kind == "sqrt":
        f2 = 1.0 - np.sqrt(f1)
    else:
        f2 = 1.0 - f1**2
    return np.column_stack([f1, f2])


def theoretical_front(name: str, m: int = 2, n_points: int = 1000) -> np.ndarray:
    """Sampled theoretical front of a named problem, or raise ValueError
    when no closed form is available."""
    name = name.lower()
    if name in ("zdt1", "zdt4"):
        return _zdt_curve(np.linspace(0.0, 1.0, n_points), "sqrt")
    if name == "zdt2":
        return _zdt_curve(np.linspace(0.0, 1.0, n_points), "square")
    if name == "zdt6":
        return _zdt_curve(np.linspace(ZDT6_F1_MIN, 1.0, n_points), "square")
    if name == "zdt3":
        f1 = np.linspace(0.0, 1.0, 40 * n_points)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        keep = _grid_non_dominated_mask(f2)
        pts = np.column_stack([f1[keep], f2[keep]])
        step = max(1, pts.shape[0] // n_points)
        return pts[::step]

    if name.startswith("dtlz"):
        index = int(name[4:])
        if index == 1:
            w = simplex_lattice(m, _lattice_h(m, n_points))
            return 0.5 * w
        if index in (2, 3, 4):
            w = simplex_lattice(m, _lattice_h(m, n_points))
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            return w / norms
        if index in (5, 6) and m == 3:
            theta = np.linspace(0.0, np.pi / 2.0, n_points)
            return np.column_stack(
                [
                    np.cos(theta) * np.cos(np.pi / 4.0),
                    np.cos(theta) * np.sin(np.pi / 4.0),
                    np.sin(theta),
                ]
            )
        if index == 7 and m <= 4:
            side = max(2, int(round(n_points ** (1.0 / (m - 1)))) * 2)
            axes = [np.linspace(0.0, 1.0, side)] * (m - 1)
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m - 1)
            h = m - np.sum(grid / 2.0 * (1.0 + np.sin(3.0 * np.pi * grid)), axis=1)
            pts = np.column_stack([grid, 2.0 * h])
            return pts[_grid_non_dominated_mask(pts[:, -1].reshape((side,) * (m - 1))).ravel()]
        raise ValueError(f"no closed-form front for {name} with {m} objectives")

    if name.startswith("wfg"):
        index = int(name[3:])
        if 4 <= index <= 9:
            w = simplex_lattice(m, _lattice_h(m, n_points))
            norms = np.linalg.norm(w, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            return (w / norms) * (2.0 * np.arange(1, m + 1, dtype=float))
        raise ValueError(f"no closed-form front for {name}")

    raise ValueError(f"unknown problem {name!r}")


def _lattice_h(m: int, target: int) -> int:
    from math import comb

    if m < 2:  # comb(h, 0) == 1 for every h: the search would never end
        raise ValueError(f"a simplex lattice needs at least 2 objectives, got {m!r}")
    h = 1
    while comb(h + 1 + m - 1, m - 1) <= target:
        h += 1
    return h
