"""DTLZ test functions 1-7, scalable in the number of objectives.

Decision dimension follows the canonical convention n = m + p - 1 with
p = 5 (DTLZ1), 10 (DTLZ2-6) or 20 (DTLZ7) distance variables.

:func:`dtlz_evaluator` builds one evaluator per (index, m).  The
position products are computed by :func:`objectives` on Python floats:
a running product of the factors, then the scale and last factors, with
the textbook loop's operands in its order.  Python and numpy round an
IEEE multiplication the same way, so every output is bitwise that
loop's, and a few float multiplies cost less than numpy calls on arrays
of m - 1 entries.  WFG's linear, convex and concave shapes are that
product at scale 1, clipped to [0, 1].  Sums are ``np.add.reduce``, the
pairwise reduction ``np.sum`` runs, without its Python wrapper.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import Callable

import numpy as np

__all__ = ["dtlz_evaluator", "DTLZ_DISTANCE_VARS", "dtlz_dimension"]

DTLZ_DISTANCE_VARS = {1: 5, 2: 10, 3: 10, 4: 10, 5: 10, 6: 10, 7: 20}

_TWENTY_PI = 20.0 * np.pi


def dtlz_dimension(index: int, m: int) -> int:
    return m + DTLZ_DISTANCE_VARS[index] - 1


def _g_rastrigin(xm: np.ndarray) -> float:
    z = xm - 0.5
    return 100.0 * (xm.shape[0] + np.add.reduce(z * z - np.cos(_TWENTY_PI * z)))


def _g_sphere(xm: np.ndarray) -> float:
    return float(np.add.reduce((xm - 0.5) ** 2))


def objectives(scale, factors: np.ndarray, last: np.ndarray) -> np.ndarray:
    """f_i = scale * prod(factors[:m-1-i]) * last[m-1-i], where f_0 takes
    no factor of ``last`` and f_{m-1} no product; m-1 factors each."""
    scale = float(scale)
    # scale * prod(factors[:j]) for j = m-1 down to 1, then scale itself
    f = [scale * p for p in accumulate(factors.tolist(), mul)]
    f.reverse()
    f.append(scale)
    return np.array(f[:1] + [p * q for p, q in zip(f[1:], reversed(last.tolist()))])


def dtlz_evaluator(index: int, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Build the evaluator of DTLZ<index> with m objectives.  It takes a
    float array of at least m variables, unchecked."""
    if index not in DTLZ_DISTANCE_VARS:
        raise ValueError(f"DTLZ index must be 1..7, got {index!r}")
    if m < 2:
        raise ValueError(f"dtlz{index} needs at least 2 objectives, got {m!r}")

    if index == 1:

        def evaluate(x):
            pos = x[: m - 1]
            return objectives(0.5 * (1.0 + _g_rastrigin(x[m - 1 :])), pos, 1.0 - pos)

        return evaluate

    if index in (2, 3, 4):
        g = _g_rastrigin if index == 3 else _g_sphere
        power = 100.0 if index == 4 else None

        def evaluate(x):
            pos = x[: m - 1]
            theta = (pos if power is None else pos**power) * (np.pi / 2.0)
            return objectives(1.0 + g(x[m - 1 :]), np.cos(theta), np.sin(theta))

        return evaluate

    if index in (5, 6):

        def evaluate(x):
            pos, xm = x[: m - 1], x[m - 1 :]
            g = _g_sphere(xm) if index == 5 else float(np.add.reduce(xm**0.1))
            theta = np.empty(m - 1)
            theta[0] = pos[0] * (np.pi / 2.0)
            theta[1:] = (np.pi / (4.0 * (1.0 + g))) * (1.0 + 2.0 * g * pos[1:])
            return objectives(1.0 + g, np.cos(theta), np.sin(theta))

        return evaluate

    def evaluate(x):  # DTLZ7
        pos, xm = x[: m - 1], x[m - 1 :]
        g = 1.0 + 9.0 * np.add.reduce(xm) / xm.shape[0]
        f = np.empty(m)
        f[: m - 1] = pos
        f[m - 1] = (1.0 + g) * (m - np.add.reduce((pos / (1.0 + g)) * (1.0 + np.sin(3.0 * np.pi * pos))))
        return f

    return evaluate

