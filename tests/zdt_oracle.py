"""The ZDT functions as textbook numpy expressions, for tests only.

Each body is the plain definition with ``np.sum``, ``np.sqrt`` and numpy
scalars throughout.  ``fcpso.problems.zdt`` computes the same values with
fewer Python-level calls and must agree with these bitwise.
"""

import numpy as np


def zdt1(x: np.ndarray) -> np.ndarray:
    f1 = x[0]
    g = 1.0 + 9.0 * np.sum(x[1:]) / (x.shape[0] - 1)
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))])


def zdt2(x: np.ndarray) -> np.ndarray:
    f1 = x[0]
    g = 1.0 + 9.0 * np.sum(x[1:]) / (x.shape[0] - 1)
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])


def zdt3(x: np.ndarray) -> np.ndarray:
    f1 = x[0]
    g = 1.0 + 9.0 * np.sum(x[1:]) / (x.shape[0] - 1)
    h = 1.0 - np.sqrt(f1 / g) - (f1 / g) * np.sin(10.0 * np.pi * f1)
    return np.array([f1, g * h])


def zdt4(x: np.ndarray) -> np.ndarray:
    f1 = x[0]
    tail = x[1:]
    g = 1.0 + 10.0 * tail.shape[0] + np.sum(tail**2 - 10.0 * np.cos(4.0 * np.pi * tail))
    return np.array([f1, g * (1.0 - np.sqrt(f1 / g))])


def zdt6(x: np.ndarray) -> np.ndarray:
    f1 = 1.0 - np.exp(-4.0 * x[0]) * np.sin(6.0 * np.pi * x[0]) ** 6
    g = 1.0 + 9.0 * (np.sum(x[1:]) / (x.shape[0] - 1)) ** 0.25
    return np.array([f1, g * (1.0 - (f1 / g) ** 2)])


ZDT = {"zdt1": zdt1, "zdt2": zdt2, "zdt3": zdt3, "zdt4": zdt4, "zdt6": zdt6}
