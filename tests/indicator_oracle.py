"""Reference IGD, additive epsilon and spacing as one (point, point,
objective) tensor each, for tests only.

Each builds every pairwise gap at once and reduces the short objective
axis, so memory grows with the product of the two front sizes.  Inputs
are taken as valid: finite, non-empty, one objective count.
"""

import numpy as np


def igd(F: np.ndarray, R: np.ndarray) -> float:
    d = np.sqrt(((R[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    return float(d.min(axis=1).mean())


def additive_epsilon(F: np.ndarray, R: np.ndarray) -> float:
    diff = (F[None, :, :] - R[:, None, :]).max(axis=2)  # worst objective per (ref, front) pair
    return float(diff.min(axis=1).max())


def spacing(F: np.ndarray) -> float:
    n = F.shape[0]
    d = np.abs(F[:, None, :] - F[None, :, :]).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    mean = nearest.mean()
    return float(np.sqrt(np.sum((mean - nearest) ** 2) / (n - 1)))
