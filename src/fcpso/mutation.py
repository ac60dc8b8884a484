"""Turbulence operator: polynomial mutation on a random slice of the swarm.

Positions are an (N, n) array mutated in place.  The draws come from the
run's ``np.random.Generator``: one ``rng.random(N)`` block picks the rows,
then each picked row, in row order, draws its mutation as one
``rng.random(2 * n)`` block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MutationConfig", "polynomial_mutate", "apply_turbulence"]


@dataclass(frozen=True)
class MutationConfig:
    distribution_index: float = 20.0
    per_variable_probability: float | None = None  # None -> 1/n
    particle_fraction: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 < self.distribution_index < np.inf:
            raise ValueError(f"distribution_index must be finite and > 0, got {self.distribution_index!r}")
        p = self.per_variable_probability
        if p is not None and not 0.0 <= p <= 1.0:
            raise ValueError(f"per_variable_probability must lie in [0, 1], got {p!r}")
        if not 0.0 <= self.particle_fraction <= 1.0:
            raise ValueError(f"particle_fraction must lie in [0, 1], got {self.particle_fraction!r}")


def polynomial_mutate(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    cfg: MutationConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Polynomial mutation with distribution index eta, clamped to bounds.

    Each variable mutates independently with per_variable_probability
    (default 1/n).  The perturbation is symmetric: an internal draw of
    u = 1/2 leaves the variable unchanged.  One ``rng.random(2 * n)`` block
    holds the draws: variable i mutates when entry i is below the
    probability, by the u in entry n + i.  Nothing is drawn when the
    probability is 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    prob = cfg.per_variable_probability if cfg.per_variable_probability is not None else 1.0 / n
    out = x.copy()
    if prob == 0.0:
        return out
    eta = cfg.distribution_index
    mut_pow = 1.0 / (eta + 1.0)
    draws = rng.random(2 * n)
    for i in np.flatnonzero(draws[:n] < prob):
        lo, hi = lower[i], upper[i]
        if hi <= lo:
            continue
        u = draws[n + i]
        d1 = (x[i] - lo) / (hi - lo)
        d2 = (hi - x[i]) / (hi - lo)
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
            dq = val**mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            dq = 1.0 - val**mut_pow
        out[i] = min(max(x[i] + dq * (hi - lo), lo), hi)
    return out


def apply_turbulence(positions: np.ndarray, bounds, cfg: MutationConfig, rng: np.random.Generator) -> None:
    """Mutate a random particle_fraction of the rows of ``positions`` in
    place; velocities and momenta are untouched."""
    if cfg.particle_fraction == 0.0:
        return
    for i in np.flatnonzero(rng.random(positions.shape[0]) < cfg.particle_fraction):
        positions[i] = polynomial_mutate(positions[i], bounds.lower, bounds.upper, cfg, rng)
