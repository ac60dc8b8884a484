"""Swarm state and the velocity/position update rules of the three solvers.

The swarm is a set of arrays with one row per particle: N x n positions,
velocities, momenta and personal-best positions, and N x m personal-best
objectives.  Variants share the same outer loop and differ only in how a
particle's speed is computed: "smpso" applies the plain constriction
factor to an inertia-weighted update, while "em-smpso" and "fcpso"
replace inertia with exponentially-averaged momentum and use the
momentum-aware factor.  The variants then differ only in their sampling
scheme for (c1, c2, beta).

Sampling is split from the dynamics: :func:`draw_coefficients` draws a
particle's coefficients together, and the ``compute_speed_*`` kernels take
one particle's rows and its drawn coefficients.  Speeds are computed row
by row, because each row's leader and coefficient draws interleave in the
run's random stream; the position/bounce and personal-best steps draw
nothing or draw in row order, so they run once over the whole block.
:func:`initialize_swarm` draws from the run's ``Generator``; every later
draw is passed a :class:`~fcpso.tape.RandomTape` over it, which returns
the generator's own values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .constriction import chi_momentum, chi_vanilla
from .fairness import EM_SMPSO_SCHEME, FCPSO_SCHEME, SMPSO_SCHEME, ParameterScheme

if TYPE_CHECKING:
    from .tape import RandomTape

__all__ = [
    "BoxBounds",
    "Swarm",
    "DynamicsConfig",
    "VARIANTS",
    "default_scheme",
    "draw_coefficients",
    "compute_speed_smpso",
    "compute_speed_em",
    "update_position",
    "velocity_constriction",
    "initialize_swarm",
    "update_pbest",
]

VARIANTS = ("smpso", "em-smpso", "fcpso")

_DEFAULT_SCHEMES = {
    "smpso": SMPSO_SCHEME,
    "em-smpso": EM_SMPSO_SCHEME,
    "fcpso": FCPSO_SCHEME,
}


def default_scheme(variant: str) -> ParameterScheme:
    try:
        return _DEFAULT_SCHEMES[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}") from None


@dataclass(frozen=True)
class BoxBounds:
    """Per-variable box constraints; delta caps each velocity component."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "delta", (upper - lower) / 2.0)

    delta: np.ndarray = field(init=False)

    @property
    def n(self) -> int:
        return self.lower.shape[0]


@dataclass
class Swarm:
    """Row ``i`` of every array is particle ``i``."""

    positions: np.ndarray  # (N, n)
    velocities: np.ndarray  # (N, n)
    momenta: np.ndarray  # (N, n)
    pbest_positions: np.ndarray  # (N, n)
    pbest_objectives: np.ndarray  # (N, m)


@dataclass(frozen=True)
class DynamicsConfig:
    variant: str = "fcpso"
    scheme: ParameterScheme | None = None  # None -> variant default
    inertia: float = 0.1  # smpso only
    swarm_size: int = 100
    velocity_init: str = "zero"  # "zero" | "uniform"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if not np.isfinite(self.inertia):
            raise ValueError(f"inertia must be finite, got {self.inertia!r}")
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size!r}")
        if self.velocity_init not in ("zero", "uniform"):
            raise ValueError(f"velocity_init must be 'zero' or 'uniform', got {self.velocity_init!r}")
        if self.scheme is None:
            object.__setattr__(self, "scheme", default_scheme(self.variant))


def draw_coefficients(scheme: ParameterScheme, rng: RandomTape, momentum: bool) -> tuple:
    """One particle's (r1, r2, c1, c2), plus beta when ``momentum``, from a
    single ``rng.random(k)`` call on the run's tape.

    ``lo + (hi - lo) * u`` in Python floats is what ``uniform(lo, hi)``
    computes, so the values and the stream's position after the call are
    bitwise those of one scalar ``Generator.uniform`` draw per coefficient.
    """
    u = rng.random(5 if momentum else 4).tolist()
    lo, hi = scheme.phi1 / 2.0, scheme.phi2 / 2.0
    coefficients = (u[0], u[1], lo + (hi - lo) * u[2], lo + (hi - lo) * u[3])
    if momentum:
        return coefficients + (scheme.beta1 + (scheme.beta2 - scheme.beta1) * u[4],)
    return coefficients


def compute_speed_smpso(
    x: np.ndarray,
    v: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    coefficients: tuple[float, float, float, float],
    inertia: float,
    bounds: BoxBounds | None = None,
) -> np.ndarray:
    """One particle's constricted inertial velocity update from one
    (r1, r2, c1, c2) draw, shared across components."""
    if gbest.shape != x.shape:
        raise ValueError(f"gbest dimension {gbest.shape} != position {x.shape}")
    r1, r2, c1, c2 = coefficients
    chi = chi_vanilla(c1 + c2)
    v = chi * (inertia * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x))
    if bounds is not None:
        v = velocity_constriction(v, bounds)
    return v


def compute_speed_em(
    x: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    coefficients: tuple[float, float, float, float, float],
    bounds: BoxBounds | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One particle's momentum velocity update from one (r1, r2, c1, c2,
    beta) draw: m' = beta m + (1-beta) v, then the constricted attraction
    step on top of m'.  Returns (velocity, momentum)."""
    if gbest.shape != x.shape:
        raise ValueError(f"gbest dimension {gbest.shape} != position {x.shape}")
    r1, r2, c1, c2, beta = coefficients
    chi = chi_momentum(c1 + c2, beta)
    m = beta * m + (1.0 - beta) * v
    v = chi * (m + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x))
    if bounds is not None:
        v = velocity_constriction(v, bounds)
    return v, m


def velocity_constriction(v: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Clamp each velocity component to [-delta_j, delta_j]."""
    return np.minimum(np.maximum(v, -bounds.delta), bounds.delta)


def update_position(swarm: Swarm, bounds: BoxBounds) -> None:
    """x' = x + v for every particle; a component hitting a wall is set on
    the wall and its velocity component reversed."""
    x, v = swarm.positions, swarm.velocities
    x += v
    low = x < bounds.lower
    high = x > bounds.upper
    np.copyto(x, bounds.lower, where=low)
    np.copyto(x, bounds.upper, where=high)
    np.negative(v, out=v, where=low | high)


def initialize_swarm(problem, cfg: DynamicsConfig, rng: np.random.Generator) -> Swarm:
    """Uniform random positions, zero momenta, pbest = evaluated start.

    Velocities start at zero by default (coherent with the zero momentum
    state); cfg.velocity_init="uniform" draws them in [-delta, delta].
    One (N, n) or (N, 2n) uniform block, row by row, is the stream of one
    position draw (then one velocity draw) per particle.
    """
    bounds = problem.bounds
    n = bounds.n
    if cfg.velocity_init == "uniform":
        block = rng.uniform(
            np.concatenate([bounds.lower, -bounds.delta]),
            np.concatenate([bounds.upper, bounds.delta]),
            size=(cfg.swarm_size, 2 * n),
        )
        x, v = np.hsplit(block, 2)
    else:
        x = rng.uniform(bounds.lower, bounds.upper, size=(cfg.swarm_size, n))
        v = np.zeros_like(x)
    objectives = np.array([problem.evaluate(row) for row in x], dtype=float)
    return Swarm(x, v, np.zeros_like(x), x.copy(), objectives)


def update_pbest(swarm: Swarm, objectives: np.ndarray, rng: RandomTape) -> None:
    """Keep each particle's dominating record; a mutually non-dominated
    newcomer (an equal one included) replaces the memory with probability
    1/2.

    Objectives are finite (the problems reject anything else), so one
    pair of comparison matrices decides dominance both ways.  Only the
    undecided rows draw from the run's tape, one draw each in row order.
    """
    objectives = np.asarray(objectives, dtype=float)
    better = (objectives < swarm.pbest_objectives).any(axis=1)
    worse = (objectives > swarm.pbest_objectives).any(axis=1)
    replace = better & ~worse
    undecided = np.flatnonzero(better == worse)
    replace[undecided] = rng.random(undecided.size) < 0.5
    swarm.pbest_positions[replace] = swarm.positions[replace]
    swarm.pbest_objectives[replace] = objectives[replace]
