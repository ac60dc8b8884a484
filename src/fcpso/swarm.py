"""Swarm state and the velocity/position update rules of the three solvers.

The swarm is a set of arrays with one row per particle: N x n positions,
velocities, momenta and personal-best positions, and N x m personal-best
objectives.  Variants share the same outer loop and one velocity step,
chi(c1 + c2, beta) (h + c1 r1 (p - x) + c2 r2 (g - x)) towards the
personal best p and the leader g, clamped to the box's [-delta, delta].
Only the carried term h and beta differ: "smpso" carries w v at
beta = 0, where the momentum-aware factor is the plain one, and
"em-smpso" and "fcpso" carry the momentum m' = beta m + (1 - beta) v.
The sampling schemes draw (c1, c2) for all three, and beta for the two
with momentum.

Sampling is split from the dynamics: :func:`draw_coefficients` draws a
generation's coefficients as one block, and the ``compute_speed_*``
kernels take one particle's rows and its row of coefficients.  The
position/bounce and personal-best steps run once over the whole block.
The initial swarm is drawn, not evaluated, with its personal-best
objectives at +inf.  Every draw comes from the run's one
``np.random.Generator``, in the order :mod:`fcpso.optimizer` gives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count
from .constriction import PHI_MAX, chi_momentum
from .fairness import FAIR_PHI2, ParameterScheme

__all__ = [
    "BoxBounds",
    "Swarm",
    "DynamicsConfig",
    "VARIANTS",
    "draw_coefficients",
    "compute_speed_smpso",
    "compute_speed_em",
    "update_position",
    "initialize_swarm",
    "update_pbest",
]

VARIANTS = ("smpso", "em-smpso", "fcpso")

# phi bounds are twice the per-coefficient bounds: c1, c2 ~ U(phi1/2, phi2/2)
_BOX_3_5 = ParameterScheme(3.0, 5.0, 0.0, 1.0)
_DEFAULT_SCHEMES = {"smpso": _BOX_3_5, "em-smpso": _BOX_3_5, "fcpso": ParameterScheme(2.0, FAIR_PHI2, 0.0, 1.0)}


@dataclass(frozen=True)
class BoxBounds:
    """Per-variable box constraints; each velocity component lies in
    [neg_delta, delta], both derived from the box.  The box owns float
    copies of ``lower`` and ``upper``, checked once (finite, with finite
    widths), and all four arrays are read-only, so a checked box cannot
    change."""

    lower: np.ndarray
    upper: np.ndarray
    delta: np.ndarray = field(init=False)
    neg_delta: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("bounds must be 1-D arrays of equal length")
        # a NaN or infinite bound or an overflowing width gives a non-finite width
        with np.errstate(over="ignore", invalid="ignore"):
            width = upper - lower
        if not np.isfinite(width).all():
            raise ValueError(f"each bound and width must be finite, got lower {lower} and upper {upper}")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must be strictly below its upper bound")
        delta = width / 2.0
        for name, a in (("lower", lower), ("upper", upper), ("delta", delta), ("neg_delta", -delta)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


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
    inertia: float | None = None  # smpso only; None -> 0.1
    swarm_size: int = 100

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.inertia is not None and not np.isfinite(self.inertia):
            raise ValueError(f"inertia must be finite, got {self.inertia!r}")
        check_count("swarm_size", self.swarm_size, 2)
        if self.inertia is None and self.variant == "smpso":
            object.__setattr__(self, "inertia", 0.1)
        elif self.inertia is not None and self.variant != "smpso":
            raise ValueError(f"inertia applies to smpso only, and the variant is {self.variant}")
        if self.scheme is None:
            object.__setattr__(self, "scheme", _DEFAULT_SCHEMES[self.variant])
        elif self.variant == "smpso" and (self.scheme.beta1, self.scheme.beta2) != (0.0, 1.0):
            raise ValueError(f"scheme: smpso draws no beta, so its beta bounds must be 0,1, got {self.scheme}")
        # draw_coefficients's c at rng.random's largest draw, monotone in it
        lo, hi = self.scheme.phi1 / 2.0, self.scheme.phi2 / 2.0
        if 2.0 * (lo + (hi - lo) * (1.0 - 2.0**-53)) > PHI_MAX:
            raise ValueError(f"scheme: a drawn c1 + c2 can pass {PHI_MAX!r}, where chi overflows, got {self.scheme}")


def draw_coefficients(scheme: ParameterScheme, rng: np.random.Generator, momentum: bool, count: int) -> np.ndarray:
    """``count`` rows of (r1, r2, c1, c2), plus beta when ``momentum``,
    from one ``rng.random((count, k))`` block.

    Each coefficient is ``lo + (hi - lo) * u``, what ``uniform(lo, hi)``
    computes, so row i is bitwise one scalar ``Generator.uniform`` draw per
    coefficient by the i-th particle in turn.
    """
    u = rng.random((count, 5 if momentum else 4))
    lo, hi = scheme.phi1 / 2.0, scheme.phi2 / 2.0
    u[:, 2:4] = lo + (hi - lo) * u[:, 2:4]
    if momentum:
        u[:, 4] = scheme.beta1 + (scheme.beta2 - scheme.beta1) * u[:, 4]
    return u


def _constricted_step(
    x: np.ndarray, carried: np.ndarray, pbest: np.ndarray, gbest: np.ndarray,
    r1: float, r2: float, c1: float, c2: float, beta: float, bounds: BoxBounds,
) -> np.ndarray:
    """The velocity step of every variant: the carried term plus the c1 r1
    and c2 r2 pulls towards pbest and gbest, times chi_momentum(c1 + c2,
    beta), each component clamped to [-delta_j, delta_j]."""
    if gbest.shape != x.shape:
        raise ValueError(f"gbest dimension {gbest.shape} != position {x.shape}")
    v = chi_momentum(c1 + c2, beta) * (carried + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x))
    return np.minimum(np.maximum(v, bounds.neg_delta), bounds.delta)


def compute_speed_smpso(
    x: np.ndarray,
    v: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    coefficients: Sequence[float],
    inertia: float,
    bounds: BoxBounds,
) -> np.ndarray:
    """One particle's constricted inertial velocity update from one
    (r1, r2, c1, c2) draw: the shared step carrying w v, at beta = 0."""
    return _constricted_step(x, inertia * v, pbest, gbest, *coefficients, 0.0, bounds)


def compute_speed_em(
    x: np.ndarray,
    v: np.ndarray,
    m: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    coefficients: Sequence[float],
    bounds: BoxBounds,
) -> tuple[np.ndarray, np.ndarray]:
    """One particle's momentum velocity update from one (r1, r2, c1, c2,
    beta) draw: m' = beta m + (1-beta) v, then the shared step carrying
    m'.  Returns (velocity, momentum)."""
    beta = coefficients[4]
    m = beta * m + (1.0 - beta) * v
    return _constricted_step(x, m, pbest, gbest, *coefficients, bounds), m


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
    """Uniform random positions, zero velocities and momenta (a coherent
    rest state), pbest = the start at +inf objectives; generation 0 evaluates.

    One ``rng.random(N * n)`` block is mapped row by row as
    ``low + (high - low) * u``, which is what ``Generator.uniform``
    computes: the stream of one position draw per particle.
    """
    low, high = problem.bounds.lower, problem.bounds.upper
    x = low + (high - low) * rng.random(cfg.swarm_size * low.shape[0]).reshape(cfg.swarm_size, -1)
    return Swarm(x, np.zeros_like(x), np.zeros_like(x), x.copy(), np.full((cfg.swarm_size, problem.n_obj), np.inf))


def update_pbest(swarm: Swarm, objectives: np.ndarray, rng: np.random.Generator) -> None:
    """Keep each particle's dominating record; a mutually non-dominated
    newcomer (an equal one included) replaces the memory with probability
    1/2.

    The newcomers are finite (the problems reject anything else), so one
    pair of comparison matrices decides dominance both ways, and each
    replaces an initial +inf memory.  Only the k undecided rows draw: one
    ``rng.random(k)`` block, in row order, so the first update draws none.
    """
    objectives = np.asarray(objectives, dtype=float)
    better = (objectives < swarm.pbest_objectives).any(axis=1)
    worse = (objectives > swarm.pbest_objectives).any(axis=1)
    replace = better & ~worse
    undecided = np.flatnonzero(better == worse)
    replace[undecided] = rng.random(undecided.size) < 0.5
    swarm.pbest_positions[replace] = swarm.positions[replace]
    swarm.pbest_objectives[replace] = objectives[replace]
