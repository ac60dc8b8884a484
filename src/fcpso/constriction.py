"""Closed-form constriction factors for plain and momentum-aided PSO.

The velocity update of a swarm whose attractors are frozen is a linear
discrete-time map.  Scaling the update by the reciprocal of the largest
eigenvalue modulus of that map keeps the dynamics bounded; the piecewise
factors below do exactly that, switching on only when an unstable
eigenvalue exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MapState",
    "EigenPair",
    "chi_vanilla",
    "chi_momentum",
    "activation_event",
    "evolution_matrix",
    "step_map",
    "eigenvalues",
    "lambda_max",
]


@dataclass(frozen=True)
class MapState:
    """State [v, y, m] of the deterministic swarm map; y is g - x."""

    v: float
    y: float
    m: float


@dataclass(frozen=True)
class EigenPair:
    """The two roots of the quadratic factor of the map's characteristic
    polynomial, plus their discriminant."""

    lambda_plus: complex
    lambda_minus: complex
    discriminant: float


def _check_phi(phi: float) -> None:
    if not math.isfinite(phi) or phi <= 0.0:
        raise ValueError(f"phi must be finite and > 0, got {phi!r}")


def _check_beta(beta: float) -> None:
    if not math.isfinite(beta) or not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta!r}")


def chi_vanilla(phi: float) -> float:
    """Constriction factor for plain PSO.

    2 / (2 - phi - sqrt(phi^2 - 4 phi)) for phi > 4, else 1.  Negative on
    the active branch.
    """
    _check_phi(phi)
    if phi <= 4.0:
        return 1.0
    return 2.0 / (2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))


def activation_event(phi: float, beta: float) -> bool:
    """True iff the momentum constriction factor takes its active branch,
    i.e. phi > 4 / (1 + beta)."""
    _check_phi(phi)
    _check_beta(beta)
    return phi > 4.0 / (1.0 + beta)


def chi_momentum(phi: float, beta: float) -> float:
    """Constriction factor for momentum-aided PSO.

    Active branch: 2 / (2 - phi - sqrt(phi^2 - 4(1-beta) phi)).  At
    beta = 0 this reduces exactly to :func:`chi_vanilla`.
    """
    # one comparison chain admits exactly the finite phi > 0 and the beta
    # in [0, 1); anything else raises as activation_event does
    if not (0.0 < phi < math.inf and 0.0 <= beta < 1.0):
        _check_phi(phi)
        _check_beta(beta)
    if not phi > 4.0 / (1.0 + beta):
        return 1.0
    # Active branch implies phi > 4/(1+beta) >= 4(1-beta), so the
    # discriminant is positive; the clamp only absorbs rounding at the
    # branch boundary.
    disc = max(phi * phi - 4.0 * (1.0 - beta) * phi, 0.0)
    return 2.0 / (2.0 - phi - math.sqrt(disc))


def evolution_matrix(phi: float, beta: float) -> np.ndarray:
    """3x3 one-step matrix of the deterministic [v, y, m] map."""
    _check_phi(phi)
    _check_beta(beta)
    return np.array(
        [
            [1.0 - beta, phi, beta],
            [beta - 1.0, 1.0 - phi, -beta],
            [1.0 - beta, 0.0, beta],
        ]
    )


def step_map(state: MapState, phi: float, beta: float) -> MapState:
    """One step of the deterministic momentum-PSO map (pbest = gbest = g)."""
    _check_phi(phi)
    _check_beta(beta)
    v, y, m = state.v, state.y, state.m
    return MapState(
        v=(1.0 - beta) * v + phi * y + beta * m,
        y=(beta - 1.0) * v + (1.0 - phi) * y - beta * m,
        m=(1.0 - beta) * v + beta * m,
    )


def eigenvalues(phi: float, beta: float) -> EigenPair:
    """Roots lambda+/- = ((2 - phi) +/- sqrt(phi^2 - 4(1-beta) phi)) / 2.

    When the discriminant is negative the pair is complex conjugate with
    common modulus sqrt(1 - beta*phi).
    """
    _check_phi(phi)
    _check_beta(beta)
    disc = phi * phi - 4.0 * (1.0 - beta) * phi
    root = complex(math.sqrt(disc), 0.0) if disc >= 0.0 else complex(0.0, math.sqrt(-disc))
    lam_plus = (complex(2.0 - phi) + root) / 2.0
    lam_minus = (complex(2.0 - phi) - root) / 2.0
    return EigenPair(lambda_plus=lam_plus, lambda_minus=lam_minus, discriminant=disc)


def lambda_max(phi: float, beta: float) -> float:
    """max(|lambda+|, |lambda-|) = (|phi - 2| + sqrt(disc)) / 2, real case only."""
    _check_phi(phi)
    _check_beta(beta)
    disc = phi * phi - 4.0 * (1.0 - beta) * phi
    if disc <= 0.0:
        raise ValueError(
            f"lambda_max requires a positive discriminant, got {disc!r} "
            f"(phi={phi!r}, beta={beta!r}); use eigenvalues() for the complex case"
        )
    return (abs(phi - 2.0) + math.sqrt(disc)) / 2.0
