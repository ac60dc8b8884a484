"""WFG test functions 1-9.

Each problem maps z in [0, 2], [0, 4], ..., [0, 2n] through a chain of
shift/bias/reduction transformations onto underlying parameters in
[0, 1], then applies a shape function scaled by S_j = 2j.  Every problem
runs at the canonical size of Huband et al. (IEEE TEVC 2006): k = 2(m-1)
position and l = 20 distance parameters.  That 2i rule is written once,
in :func:`wfg_scales`.  The linear, convex and concave shapes are the
DTLZ product :func:`.dtlz.objectives` at scale 1, clipped to [0, 1].

:func:`wfg_evaluator` builds one evaluator per (index, m), for which
the input scales, S_j, the group slices with their weight vectors and
divisors, and the transformation constants are computed once, so a call
only transforms z.  The outputs are bitwise those of a direct
transcription of the suite: reductions keep their ``np.dot`` order, and
``sin``/``cos``/``pow`` see the same arrays or scalars (numpy's vector and
scalar ``pow`` may differ in the last bit).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .dtlz import objectives

__all__ = ["wfg_evaluator", "wfg_bounds", "wfg_dimension", "wfg_scales", "WFG_DISTANCE_VARS"]

WFG_DISTANCE_VARS = 20


def wfg_position_vars(m: int) -> int:
    return 2 * (m - 1)


def wfg_dimension(m: int) -> int:
    return wfg_position_vars(m) + WFG_DISTANCE_VARS


def wfg_scales(count: int) -> np.ndarray:
    """2, 4, ..., 2 * count: the bounds z_i,max = 2i and the scales S_j = 2j."""
    return 2.0 * np.arange(1, count + 1, dtype=float)


def wfg_bounds(m: int) -> tuple[np.ndarray, np.ndarray]:
    n = wfg_dimension(m)
    return np.zeros(n), wfg_scales(n)


def _clip01(y):
    return np.minimum(np.maximum(y, 0.0), 1.0)


# --- transformations: each factory folds its constants ------------------------


def _s_linear(a):
    def s(y):
        return _clip01(np.abs(y - a) / np.abs(np.floor(a - y) + a))

    return s


def _s_deceptive(a, b, c):
    k1, d1 = 1.0 - c + (a - b) / b, a - b
    k2, d2 = 1.0 - c + (1.0 - a - b) / b, 1.0 - a - b
    inv_b = 1.0 / b

    def s(y):
        t1 = np.floor(y - a + b) * k1 / d1
        t2 = np.floor(a + b - y) * k2 / d2
        return _clip01(1.0 + (np.abs(y - a) - b) * (t1 + t2 + inv_b))

    return s


def _s_multimodal(a, b, c):
    freq, four_b, denom = (4.0 * a + 2.0) * np.pi, 4.0 * b, b + 2.0

    def s(y):
        t1 = np.abs(y - c) / (2.0 * (np.floor(c - y) + c))
        return _clip01((1.0 + np.cos(freq * (0.5 - t1)) + four_b * t1 * t1) / denom)

    return s


def _b_flat(a, b, c):
    one_a, one_c = 1.0 - a, 1.0 - c

    def s(y):
        return _clip01(
            a
            + np.minimum(0.0, np.floor(y - b)) * a * (b - y) / b
            - np.minimum(0.0, np.floor(c - y)) * one_a * (y - c) / one_c
        )

    return s


# b_param(y, u; 0.98/49.98, 0.02, 50), the dependency bias of WFG7-9
_BP_A, _BP_B, _BP_C = 0.98 / 49.98, 0.02, 50.0
_BP_RANGE = _BP_C - _BP_B


def _b_param(values: list[float], means: list[float]) -> list[float]:
    """b_param per element in Python floats, whose ``**`` is numpy's scalar
    pow (its vector pow may round differently)."""
    out = []
    for y, u in zip(values, means):
        v = _BP_A - (1.0 - 2.0 * u) * abs(math.floor(0.5 - u) + _BP_A)
        out.append(min(max(0.0, y ** (_BP_B + _BP_RANGE * v)), 1.0))
    return out


def _r_nonsep(values: list[float], a: int, divisor: float) -> float:
    n = len(values)
    total = 0.0
    for j in range(n):
        total += values[j]
        for k in range(a - 1):
            total += abs(values[j] - values[(j + k + 1) % n])
    return min(max(0.0, total / divisor), 1.0)


def _nonsep_divisor(n: int, a: int) -> float:
    half = math.ceil(a / 2.0)
    return (n / a) * half * (1.0 + 2.0 * a - 2.0 * half)


def _sum_groups(w: np.ndarray, ranges) -> list[tuple[slice, np.ndarray, float]]:
    """(slice, weights, weight sum) of an r_sum over each [start, end)."""
    return [(slice(a, b), w[a:b], np.sum(w[a:b])) for a, b in ranges]


def _r_sum(y: np.ndarray, groups) -> list[float]:
    return [float(np.dot(y[sl], w) / d) for sl, w, d in groups]


# --- shapes -----------------------------------------------------------------


def _shape_linear(x):
    return _clip01(objectives(1.0, x, 1.0 - x))


def _shape_convex(x):
    angle = x * np.pi / 2.0
    return _clip01(objectives(1.0, 1.0 - np.cos(angle), 1.0 - np.sin(angle)))


def _shape_concave(x):
    angle = x * np.pi / 2.0
    return _clip01(objectives(1.0, np.sin(angle), np.cos(angle)))


def _shape_mixed(x1, alpha, a):
    aux = 2.0 * a * np.pi
    return _clip01((1.0 - x1 - np.cos(aux * x1 + np.pi / 2.0) / aux) ** alpha)


def _shape_disconnected(x1, alpha, beta, a):
    return _clip01(1.0 - x1**alpha * np.cos(a * np.pi * x1**beta) ** 2)


# --- the nine problems ------------------------------------------------------


def wfg_evaluator(index: int, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Build the evaluator of WFG<index> with m objectives.  It takes a
    float array of length wfg_dimension(m), unchecked."""
    if not 1 <= index <= 9:
        raise ValueError(f"WFG index must be 1..9, got {index!r}")
    if m < 2:
        raise ValueError(f"wfg{index} needs at least 2 objectives, got {m!r}")
    k, l = wfg_position_vars(m), WFG_DISTANCE_VARS
    n = k + l
    gap = k // (m - 1)
    scale, s = wfg_scales(n), wfg_scales(m)
    a = np.ones(m - 1)
    if index == 3:  # degenerate: only the first position parameter spans the front
        a[1:] = 0.0

    def blocks(end):  # the m-1 position groups, then the distance tail
        return [(i * gap, (i + 1) * gap) for i in range(m - 1)] + [(k, end)]

    def summed(groups):
        return lambda y: np.array(_r_sum(y, groups))

    def nonsep(y):
        values = y.tolist()
        return np.array([_r_nonsep(values[b:e], e - b, d) for (b, e), d in nonsep_blocks])

    nonsep_blocks = [(r, _nonsep_divisor(r[1] - r[0], r[1] - r[0])) for r in blocks(n)]
    linear = _s_linear(0.35)
    reduce = summed(_sum_groups(np.ones(n), blocks(n)))
    shape = _shape_concave

    if index == 1:
        flat = _b_flat(0.8, 0.75, 0.85)

        def transform(y):
            y[k:] = flat(linear(y[k:]))
            return _clip01(y**0.02)

        def shape(x):
            h = _shape_convex(x)
            h[-1] = _shape_mixed(x[0], 1.0, 5.0)
            return h

        reduce = summed(_sum_groups(scale, blocks(n)))
    elif index in (2, 3):
        pair = _nonsep_divisor(2, 2)

        def transform(y):
            y[k:] = linear(y[k:])
            values = y.tolist()
            pairs = [_r_nonsep(values[b : b + 2], 2, pair) for b in range(k, n, 2)]
            return np.append(y[:k], pairs)

        def shape2(x):
            h = _shape_convex(x)
            h[-1] = _shape_disconnected(x[0], 1.0, 1.0, 5.0)
            return h

        shape = shape2 if index == 2 else _shape_linear
        reduce = summed(_sum_groups(np.ones(k + l // 2), blocks(k + l // 2)))
    elif index == 4:
        transform = _s_multimodal(30.0, 10.0, 0.35)
    elif index == 5:
        transform = _s_deceptive(0.35, 0.001, 0.05)
    elif index == 6:

        def transform(y):
            y[k:] = linear(y[k:])
            return y

        reduce = nonsep
    else:
        # b_param reads each u from values still untransformed: WFG7 and
        # WFG9 from those right of the biased one, WFG8 from those left
        if index == 8:
            span, ranges = slice(k, n), [(0, i) for i in range(k, n)]
        else:
            end = k if index == 7 else n - 1
            span, ranges = slice(0, end), [(i + 1, n) for i in range(end)]
        means = _sum_groups(np.ones(n), ranges)
        deceptive = _s_deceptive(0.35, 0.001, 0.05)
        multimodal = _s_multimodal(30.0, 95.0, 0.35)

        def transform(y):
            y[span] = _b_param(y[span].tolist(), _r_sum(y, means))
            if index == 9:
                y[:k] = deceptive(y[:k])
                y[k:] = multimodal(y[k:])
            else:
                y[k:] = linear(y[k:])
            return y

        if index == 9:
            reduce = nonsep

    def evaluate(z):
        t = reduce(transform(z / scale))
        x_last = t[-1]
        x = np.maximum(x_last, a) * (t[:-1] - 0.5) + 0.5
        return x_last + s * shape(x)

    return evaluate

