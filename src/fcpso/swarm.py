"""Swarm state and the velocity/position update rules of the three solvers.

Variants share the same outer loop and differ only in how a particle's
speed is computed: "smpso" applies the plain constriction factor to an
inertia-weighted update, while "em-smpso" and "fcpso" replace inertia
with exponentially-averaged momentum and use the momentum-aware factor.
The variants then differ only in their sampling scheme for (c1, c2, beta).

Sampling is split from the dynamics: :func:`draw_coefficients` makes one
generator call per particle and move, and the ``compute_speed_*`` kernels
take the drawn coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constriction import chi_momentum, chi_vanilla
from .fairness import EM_SMPSO_SCHEME, FCPSO_SCHEME, SMPSO_SCHEME, ParameterScheme

__all__ = [
    "BoxBounds",
    "Particle",
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
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    momentum: np.ndarray
    pbest_position: np.ndarray
    pbest_objectives: np.ndarray


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
        if self.swarm_size < 2:
            raise ValueError(f"swarm_size must be >= 2, got {self.swarm_size!r}")
        if self.velocity_init not in ("zero", "uniform"):
            raise ValueError(f"velocity_init must be 'zero' or 'uniform', got {self.velocity_init!r}")
        if self.scheme is None:
            object.__setattr__(self, "scheme", default_scheme(self.variant))


def draw_coefficients(scheme: ParameterScheme, rng: np.random.Generator, momentum: bool) -> tuple:
    """One particle's (r1, r2, c1, c2), plus beta when ``momentum``, from a
    single ``rng.random`` call.

    ``lo + (hi - lo) * u`` in Python floats is what ``rng.uniform(lo, hi)``
    computes, so the values and the generator's state after the call are
    bitwise those of one scalar ``uniform`` draw per coefficient.
    """
    u = rng.random(5 if momentum else 4).tolist()
    lo, hi = scheme.phi1 / 2.0, scheme.phi2 / 2.0
    coefficients = (u[0], u[1], lo + (hi - lo) * u[2], lo + (hi - lo) * u[3])
    if momentum:
        return coefficients + (scheme.beta1 + (scheme.beta2 - scheme.beta1) * u[4],)
    return coefficients


def compute_speed_smpso(
    p: Particle,
    gbest: np.ndarray,
    coefficients: tuple[float, float, float, float],
    inertia: float,
    bounds: BoxBounds | None = None,
) -> np.ndarray:
    """Constricted inertial velocity update from one (r1, r2, c1, c2) draw
    per particle, shared across components."""
    if gbest.shape != p.position.shape:
        raise ValueError(f"gbest dimension {gbest.shape} != position {p.position.shape}")
    r1, r2, c1, c2 = coefficients
    chi = chi_vanilla(c1 + c2)
    v = chi * (
        inertia * p.velocity
        + c1 * r1 * (p.pbest_position - p.position)
        + c2 * r2 * (gbest - p.position)
    )
    if bounds is not None:
        v = velocity_constriction(v, bounds)
    return v


def compute_speed_em(
    p: Particle,
    gbest: np.ndarray,
    coefficients: tuple[float, float, float, float, float],
    bounds: BoxBounds | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Momentum velocity update from one (r1, r2, c1, c2, beta) draw:
    m' = beta m + (1-beta) v, then the constricted attraction step on top
    of m'.  Returns (velocity, momentum)."""
    if gbest.shape != p.position.shape:
        raise ValueError(f"gbest dimension {gbest.shape} != position {p.position.shape}")
    r1, r2, c1, c2, beta = coefficients
    chi = chi_momentum(c1 + c2, beta)
    m = beta * p.momentum + (1.0 - beta) * p.velocity
    v = chi * (m + c1 * r1 * (p.pbest_position - p.position) + c2 * r2 * (gbest - p.position))
    if bounds is not None:
        v = velocity_constriction(v, bounds)
    return v, m


def velocity_constriction(v: np.ndarray, bounds: BoxBounds) -> np.ndarray:
    """Clamp each velocity component to [-delta_j, delta_j]."""
    return np.minimum(np.maximum(v, -bounds.delta), bounds.delta)


def update_position(p: Particle, bounds: BoxBounds) -> None:
    """x' = x + v; a component hitting a wall is set on the wall and its
    velocity component reversed."""
    x = p.position + p.velocity
    low = x < bounds.lower
    high = x > bounds.upper
    if low.any() or high.any():
        bounce = low | high
        x = np.where(low, bounds.lower, x)
        x = np.where(high, bounds.upper, x)
        p.velocity = np.where(bounce, -p.velocity, p.velocity)
    p.position = x


def initialize_swarm(problem, cfg: DynamicsConfig, rng: np.random.Generator) -> list[Particle]:
    """Uniform random positions, zero momenta, pbest = evaluated start.

    Velocities start at zero by default (coherent with the zero momentum
    state); cfg.velocity_init="uniform" draws them in [-delta, delta].
    """
    bounds = problem.bounds
    swarm = []
    for _ in range(cfg.swarm_size):
        x = rng.uniform(bounds.lower, bounds.upper)
        if cfg.velocity_init == "uniform":
            v = rng.uniform(-bounds.delta, bounds.delta)
        else:
            v = np.zeros(bounds.n)
        y = problem.evaluate(x)
        swarm.append(
            Particle(
                position=x,
                velocity=v,
                momentum=np.zeros(bounds.n),
                pbest_position=x.copy(),
                pbest_objectives=np.asarray(y, dtype=float),
            )
        )
    return swarm


def update_pbest(p: Particle, new_objectives: np.ndarray, rng: np.random.Generator) -> None:
    """Keep the dominating record; a mutually non-dominated newcomer (an
    equal one included) replaces the memory with probability 1/2.

    Objectives are finite (the problems reject anything else), so one
    pair of comparisons decides dominance both ways.
    """
    new_objectives = np.asarray(new_objectives, dtype=float)
    better = (new_objectives < p.pbest_objectives).any()
    worse = (new_objectives > p.pbest_objectives).any()
    if worse and not better:
        return
    if better == worse and rng.random() >= 0.5:
        return
    p.pbest_position = p.position.copy()
    p.pbest_objectives = new_objectives
