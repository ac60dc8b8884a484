"""Constriction-fairness calculus for momentum-aided swarms.

A parameter scheme draws phi ~ U(phi1, phi2) and beta ~ U(beta1, beta2)
once per particle per iteration.  The constriction factor activates on the
event E = {phi > 4/(1+beta)}.  A scheme is *fairly constricted* when
P(E) = 1/2; the unfairness metric mu = P(E) - 1/2 measures the deviation,
with mu > 0 over-constricted and mu < 0 under-constricted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_count

__all__ = [
    "ParameterScheme",
    "FairnessReport",
    "UnreachableUnfairnessError",
    "SMPSO_SCHEME",
    "EM_SMPSO_SCHEME",
    "FCPSO_SCHEME",
    "FAIR_PHI2",
    "activation_probability",
    "unfairness",
    "unfairness_restricted",
    "monte_carlo_activation",
    "solve_fair_phi2",
    "scheme_for_unfairness",
]

# Over-constricted limit of the restricted-momentum family: mu at
# epsilon -> 1, equal to 1 - 2 ln(4/3).
_MU_RESTRICTED_SUP = 1.0 - 2.0 * math.log(4.0 / 3.0)


class UnreachableUnfairnessError(ValueError):
    """Requested unfairness lies outside the range of the known families."""


@dataclass(frozen=True)
class ParameterScheme:
    """Uniform sampling bounds (phi1, phi2, beta1, beta2) of a velocity rule."""

    phi1: float
    phi2: float
    beta1: float = 0.0
    beta2: float = 1.0

    def __post_init__(self) -> None:
        ok = (
            math.isfinite(self.phi1)
            and math.isfinite(self.phi2)
            and 0.0 < self.phi1 < self.phi2
            and 0.0 <= self.beta1 < self.beta2 <= 1.0
        )
        if not ok:
            raise ValueError(
                "scheme requires 0 < phi1 < phi2 and 0 <= beta1 < beta2 <= 1, "
                f"got ({self.phi1!r}, {self.phi2!r}, {self.beta1!r}, {self.beta2!r})"
            )

    @property
    def phi_l(self) -> float:
        """Lower edge of the phi corridor where activation is partial."""
        return max(self.phi1, 4.0 / (1.0 + self.beta2))

    @property
    def phi_g(self) -> float:
        """Upper edge of the phi corridor where activation is partial."""
        return min(4.0 / (1.0 + self.beta1), self.phi2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi2, self.beta1, self.beta2)


# Scheme defaults of the three solver variants.  phi bounds are twice the
# per-coefficient bounds: c1, c2 ~ U(phi1/2, phi2/2).
SMPSO_SCHEME = ParameterScheme(3.0, 5.0, 0.0, 1.0)
EM_SMPSO_SCHEME = ParameterScheme(3.0, 5.0, 0.0, 1.0)
FAIR_PHI2 = 3.4672
FCPSO_SCHEME = ParameterScheme(2.0, FAIR_PHI2, 0.0, 1.0)


@dataclass(frozen=True)
class FairnessReport:
    """A Monte Carlo estimate of a scheme's activation probability."""

    p_activation: float
    unfairness: float
    sample_count: int
    std_error: float


def activation_probability(scheme: ParameterScheme) -> float:
    """Exact P(E) for a scheme, E = {phi > 4/(1+beta)}.

    The activation boundary beta = 4/phi - 1 crosses the (phi, beta) box
    only for phi in [phi_l, phi_g]; below the corridor nothing activates,
    above it everything does.
    """
    phi1, phi2, beta1, beta2 = scheme.as_tuple()
    if phi2 <= 4.0 / (1.0 + beta2):  # box entirely below the boundary
        return 0.0
    if phi1 >= 4.0 / (1.0 + beta1):  # box entirely above the boundary
        return 1.0
    lo, hi = scheme.phi_l, scheme.phi_g
    p_phi = 1.0 / (phi2 - phi1)
    p_beta = 1.0 / (beta2 - beta1)
    # integral over the corridor of (beta2 - (4/phi - 1)) dphi
    corridor = (beta2 + 1.0) * (hi - lo) - 4.0 * math.log(hi / lo)
    return p_phi * p_beta * corridor + p_phi * (phi2 - hi)


def unfairness(scheme: ParameterScheme) -> float:
    """mu = P(E) - 1/2."""
    return activation_probability(scheme) - 0.5


def unfairness_restricted(epsilon: float) -> float:
    """mu of the restricted-momentum family phi ~ U(3,5), beta ~ U(0,eps).

    Piecewise in eps (the corridor's lower edge hits phi1 = 3 at
    eps = 1/3):

        eps <  1/3:  2 [1 - ln(1+eps)/eps]
        eps >= 1/3:  (1/2) [1 - (4 ln(4/3) - 1)/eps]

    Strictly positive and increasing on (0, 1): the family is always
    over-constricted, approaching fair only as eps -> 0.
    """
    if not (math.isfinite(epsilon) and 0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if epsilon < 1.0 / 3.0:
        # log1p keeps precision as eps -> 0, where mu ~ eps.
        return 2.0 * (1.0 - math.log1p(epsilon) / epsilon)
    return 0.5 * (1.0 - (4.0 * math.log(4.0 / 3.0) - 1.0) / epsilon)


def monte_carlo_activation(
    scheme: ParameterScheme, samples: int, seed: int = 0
) -> FairnessReport:
    """Empirical P(E) by direct sampling; the brute-force cross-check for
    the closed forms."""
    check_count("samples", samples, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(scheme.phi1, scheme.phi2, size=samples)
    beta = rng.uniform(scheme.beta1, scheme.beta2, size=samples)
    hits = int(np.count_nonzero(phi > 4.0 / (1.0 + beta)))
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return FairnessReport(p_activation=p, unfairness=p - 0.5, sample_count=samples, std_error=se)


def _bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"no sign change in bracket [{lo!r}, {hi!r}] (f: {flo!r}, {fhi!r})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _phi2_for(phi1: float, target_mu: float) -> float:
    """phi2 in (phi1, 4] where (phi1, phi2, 0, 1) has unfairness target_mu,
    by bisection; raises if mu - target_mu does not change sign there."""
    return _bisect(lambda p2: unfairness(ParameterScheme(phi1, p2, 0.0, 1.0)) - target_mu, phi1 + 1e-9, 4.0)


def solve_fair_phi2(phi1: float = 2.0) -> float:
    """phi2 making (phi1, phi2, 0, 1) fairly constricted, by bisection on
    (phi1, 4].

    For phi1 = 2 this is 2 x, x the root of (x - 1)/ln x = 4/3 (the
    paper's closed form), approximately 3.4672.
    Raises if mu does not change sign on the bracket (no fair phi2 for
    this phi1).
    """
    if not (math.isfinite(phi1) and 0.0 < phi1 < 4.0):
        raise ValueError(f"phi1 must lie in (0, 4), got {phi1!r}")
    return _phi2_for(phi1, 0.0)


def scheme_for_unfairness(target_mu: float) -> ParameterScheme:
    """A scheme whose unfairness is target_mu, from the two one-parameter
    families with known mu ranges.

    target_mu in (0, ~0.4246]: restricted momentum (3, 5, 0, eps), mu
    increasing in eps.  target_mu in (-0.5, 0]: full momentum
    (2, phi2, 0, 1), mu increasing in phi2 on (2, 4]; at 0 (either sign)
    the fair scheme (2, 3.4672..., 0, 1), since the restricted family
    has mu > 0 for every eps.
    """
    if not math.isfinite(target_mu):
        raise UnreachableUnfairnessError(f"target must be finite, got {target_mu!r}")
    if 0.0 < target_mu <= _MU_RESTRICTED_SUP:
        eps = _bisect(lambda e: unfairness_restricted(e) - target_mu, 1e-12, 1.0 - 1e-12)
        return ParameterScheme(3.0, 5.0, 0.0, eps)
    if -0.5 < target_mu <= 0.0:
        return ParameterScheme(2.0, _phi2_for(2.0, target_mu), 0.0, 1.0)
    raise UnreachableUnfairnessError(
        f"no known scheme family reaches mu = {target_mu!r}; coverage is "
        f"(-0.5, {_MU_RESTRICTED_SUP:.4f}]"
    )
