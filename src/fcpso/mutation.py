"""Turbulence operator: polynomial mutation on a random slice of the swarm.

Positions are an (N, n) array mutated in place.  The draws come from the
run's ``np.random.Generator``: one ``rng.random(N)`` block picks the P
rows, then one ``rng.random((P, 2 * n))`` block holds their mutations,
row by row in row order.  It is bitwise P ``rng.random(2 * n)`` blocks,
one per picked row.  Turbulence takes the :class:`BoxBounds`, which
owns, checks and freezes its arrays; only the positions are checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_fraction
from .swarm import BoxBounds

__all__ = ["MutationConfig", "polynomial_mutate", "apply_turbulence"]


@dataclass(frozen=True)
class MutationConfig:
    distribution_index: float = 20.0
    per_variable_probability: float | None = None  # None -> 1/n
    particle_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.distribution_index < np.inf:
            raise ValueError(f"distribution_index must be finite and > 0, got {self.distribution_index!r}")
        if self.per_variable_probability is not None:
            check_fraction("per_variable_probability", self.per_variable_probability)
        check_fraction("particle_fraction", self.particle_fraction)


def polynomial_mutate(x: np.ndarray, bounds: BoxBounds, cfg: MutationConfig, rng: np.random.Generator) -> np.ndarray:
    """Polynomial mutation with distribution index eta, clamped to the box.

    ``x`` is a (P, n) block of P points in ``bounds``, a box of n
    variables that checked itself when it was built; the result is a new
    (P, n) block.  Each variable mutates independently with
    per_variable_probability (default 1/n).  The perturbation is
    symmetric: an internal draw of u = 1/2 leaves the variable unchanged.
    One ``rng.random((P, 2 * n))`` block holds the draws: variable i of
    point r mutates when entry (r, i) is below the probability, by the u
    in entry (r, n + i).  Nothing is drawn when the probability is 0.  A
    block of another width than the box, or a point outside it, raises
    ValueError before any draw.  Each mutated variable is computed in
    Python floats, the scalar ``**`` included.
    """
    x = np.asarray(x, dtype=float)
    lower, upper = bounds.lower, bounds.upper
    n = lower.shape[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"x has shape {x.shape}, but the box has {n} variables")
    # written so that a NaN, which compares False, fails it
    if not ((lower <= x) & (x <= upper)).all():
        raise ValueError("x must lie within [lower, upper]")
    prob = cfg.per_variable_probability if cfg.per_variable_probability is not None else 1.0 / n
    out = x.copy()
    if prob == 0.0:
        return out
    eta = cfg.distribution_index
    mut_pow = 1.0 / (eta + 1.0)
    draws = rng.random((out.shape[0], 2 * n))
    rows, cols = np.nonzero(draws[:, :n] < prob)
    hits = zip(out[rows, cols].tolist(), lower[cols].tolist(), upper[cols].tolist(), draws[rows, cols + n].tolist())
    mutated = []
    for xi, lo, hi, u in hits:
        d1 = (xi - lo) / (hi - lo)
        d2 = (hi - xi) / (hi - lo)
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
            dq = val**mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            dq = 1.0 - val**mut_pow
        mutated.append(min(max(xi + dq * (hi - lo), lo), hi))
    out[rows, cols] = mutated
    return out


def apply_turbulence(positions: np.ndarray, bounds: BoxBounds, cfg: MutationConfig, rng: np.random.Generator) -> None:
    """Mutate a random particle_fraction of the rows of ``positions`` in
    place, with one :func:`polynomial_mutate` call over the picked rows;
    velocities and momenta are untouched."""
    if cfg.particle_fraction == 0.0:
        return
    rows = np.flatnonzero(rng.random(positions.shape[0]) < cfg.particle_fraction)
    positions[rows] = polynomial_mutate(positions[rows], bounds, cfg, rng)
