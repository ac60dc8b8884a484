"""Closed-form constriction factors for plain and momentum-aided PSO.

The velocity update of a swarm whose attractors are frozen is a linear
discrete-time map, :func:`evolution_matrix`.  The piecewise factors below
switch on only above :func:`activation_threshold`, where the map has an
eigenvalue lambda- < -1, and return 1/lambda-: negative, as in SMPSO
(Nebro et al., MCDM 2009), with |chi| = 1/lambda_max keeping the
dynamics bounded.
"Constricted" in the fairness calculus refers to |chi|.  Every function
here takes beta in [0, 1], the closed box a scheme may draw from; phi
must be positive and finite, and the factor and the eigenvalues square
it, so they refuse a phi above :data:`PHI_MAX`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PHI_MAX",
    "EigenPair",
    "chi_vanilla",
    "chi_momentum",
    "activation_threshold",
    "activation_event",
    "evolution_matrix",
    "eigenvalues",
    "lambda_max",
]


PHI_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class EigenPair:
    """The two roots of the quadratic factor of the map's characteristic
    polynomial, plus their discriminant."""

    lambda_plus: complex
    lambda_minus: complex
    discriminant: float


def _check(phi: float, beta: float, squared: bool = False) -> None:
    if not math.isfinite(phi) or phi <= 0.0:
        raise ValueError(f"phi must be finite and > 0, got {phi!r}")
    if squared and phi > PHI_MAX:
        raise ValueError(f"phi must be at most {PHI_MAX!r}, past which phi * phi overflows, got {phi!r}")
    if not math.isfinite(beta) or not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta!r}")


def chi_vanilla(phi: float) -> float:
    """Constriction factor for plain PSO: :func:`chi_momentum` at beta = 0.

    2 / (2 - phi - sqrt(phi^2 - 4 phi)) for phi > 4, else 1.  Negative on
    the active branch.
    """
    return chi_momentum(phi, 0.0)


def activation_threshold(beta: float | np.ndarray) -> float | np.ndarray:
    """The activation boundary 4 / (1 + beta): the constriction factor is
    active exactly for phi above it.  Elementwise on an array of beta."""
    return 4.0 / (1.0 + beta)


def activation_event(phi: float, beta: float) -> bool:
    """True iff the momentum constriction factor takes its active branch,
    i.e. phi > :func:`activation_threshold` (beta)."""
    _check(phi, beta)
    return phi > activation_threshold(beta)


def chi_momentum(phi: float, beta: float) -> float:
    """Constriction factor for momentum-aided PSO.

    Active branch: 2 / (2 - phi - sqrt(phi^2 - 4(1-beta) phi)).  At
    beta = 0 this reduces exactly to :func:`chi_vanilla`.
    """
    # one comparison chain admits exactly the phi in (0, PHI_MAX] and the
    # beta in [0, 1]; anything else raises
    if not (0.0 < phi <= PHI_MAX and 0.0 <= beta <= 1.0):
        _check(phi, beta, squared=True)
    if not phi > activation_threshold(beta):
        return 1.0
    # Active branch implies phi > 4/(1+beta) >= 4(1-beta), so the
    # discriminant is positive; the clamp only absorbs rounding at the
    # branch boundary.
    disc = max(phi * phi - 4.0 * (1.0 - beta) * phi, 0.0)
    return 2.0 / (2.0 - phi - math.sqrt(disc))


def evolution_matrix(phi: float, beta: float) -> np.ndarray:
    """The deterministic momentum-PSO map with pbest = gbest = g, as the
    3x3 matrix that steps the state [v, y, m], y = g - x, by one
    iteration: ``evolution_matrix(phi, beta) @ state``."""
    _check(phi, beta)
    return np.array(
        [
            [1.0 - beta, phi, beta],
            [beta - 1.0, 1.0 - phi, -beta],
            [1.0 - beta, 0.0, beta],
        ]
    )


def eigenvalues(phi: float, beta: float) -> EigenPair:
    """Roots lambda+/- = ((2 - phi) +/- sqrt(phi^2 - 4(1-beta) phi)) / 2.

    When the discriminant is negative the pair is complex conjugate with
    common modulus sqrt(1 - beta*phi).
    """
    _check(phi, beta, squared=True)
    disc = phi * phi - 4.0 * (1.0 - beta) * phi
    root = complex(math.sqrt(disc), 0.0) if disc >= 0.0 else complex(0.0, math.sqrt(-disc))
    lam_plus = (complex(2.0 - phi) + root) / 2.0
    lam_minus = (complex(2.0 - phi) - root) / 2.0
    return EigenPair(lambda_plus=lam_plus, lambda_minus=lam_minus, discriminant=disc)


def lambda_max(phi: float, beta: float) -> float:
    """max(|lambda+|, |lambda-|) = (|phi - 2| + sqrt(disc)) / 2, real case
    only: the larger modulus of the pair :func:`eigenvalues` returns."""
    pair = eigenvalues(phi, beta)
    if pair.discriminant <= 0.0:
        raise ValueError(
            f"lambda_max requires a positive discriminant, got {pair.discriminant!r} "
            f"(phi={phi!r}, beta={beta!r}); use eigenvalues() for the complex case"
        )
    return max(abs(pair.lambda_plus), abs(pair.lambda_minus))
