"""ZDT bi-objective test functions (1-4 and 6), standard definitions.

The sums are ``np.add.reduce``, the pairwise reduction ``np.sum`` runs,
and the scalar arithmetic and square roots are Python floats
(``math.sqrt`` is correctly rounded, like ``np.sqrt``).  ``sin``, ``cos``,
``exp`` and the powers stay numpy calls: a vector kernel may round
differently from libm.  So every output is bitwise that of the textbook
numpy expression.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["zdt1", "zdt2", "zdt3", "zdt4", "zdt6", "ZDT_DIMENSIONS"]

ZDT_DIMENSIONS = {"zdt1": 30, "zdt2": 30, "zdt3": 30, "zdt4": 10, "zdt6": 10}


def _g(x: np.ndarray) -> float:
    return 1.0 + 9.0 * float(np.add.reduce(x[1:])) / (x.shape[0] - 1)


def zdt1(x: np.ndarray) -> np.ndarray:
    f1 = x.item(0)
    g = _g(x)
    return np.array([f1, g * (1.0 - math.sqrt(f1 / g))])


def zdt2(x: np.ndarray) -> np.ndarray:
    f1 = x.item(0)
    g = _g(x)
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])


def zdt3(x: np.ndarray) -> np.ndarray:
    f1 = x.item(0)
    g = _g(x)
    h = 1.0 - math.sqrt(f1 / g) - (f1 / g) * np.sin(10.0 * np.pi * f1)
    return np.array([f1, g * h])


def zdt4(x: np.ndarray) -> np.ndarray:
    f1 = x.item(0)
    tail = x[1:]
    g = 1.0 + 10.0 * tail.shape[0] + float(np.add.reduce(tail**2 - 10.0 * np.cos(4.0 * np.pi * tail)))
    return np.array([f1, g * (1.0 - math.sqrt(f1 / g))])


def zdt6(x: np.ndarray) -> np.ndarray:
    f1 = 1.0 - np.exp(-4.0 * x[0]) * np.sin(6.0 * np.pi * x[0]) ** 6
    g = 1.0 + 9.0 * (np.add.reduce(x[1:]) / (x.shape[0] - 1)) ** 0.25
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])
