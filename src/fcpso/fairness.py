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
from .constriction import activation_threshold

__all__ = [
    "ParameterScheme",
    "FairnessReport",
    "UnreachableUnfairnessError",
    "FAIR_PHI2",
    "activation_probability",
    "unfairness",
    "unfairness_restricted",
    "monte_carlo_activation",
    "solve_fair_phi2",
    "scheme_for_unfairness",
]

class UnreachableUnfairnessError(ValueError):
    """Requested unfairness lies outside what a family's bracket reaches."""


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
        return max(self.phi1, activation_threshold(self.beta2))

    @property
    def phi_g(self) -> float:
        """Upper edge of the phi corridor where activation is partial."""
        return min(activation_threshold(self.beta1), self.phi2)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.phi1, self.phi2, self.beta1, self.beta2)


# fcpso's default phi2: solve_fair_phi2(2.0) to four decimals
FAIR_PHI2 = 3.4672


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
    lo, hi = scheme.phi_l, scheme.phi_g
    if lo >= phi2:  # box entirely below the boundary
        return 0.0
    if hi <= phi1:  # box entirely above the boundary
        return 1.0
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
    hits = int(np.count_nonzero(phi > activation_threshold(beta)))
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return FairnessReport(p_activation=p, unfairness=p - 0.5, sample_count=samples, std_error=se)


def _bisect(mu, target: float, lo: float, hi: float, family: str) -> float:
    """x in [lo, hi] with mu(x) = target, for mu increasing there; the 1e-12
    stop takes at most 42 halvings of a bracket up to 4 wide."""
    mu_lo, mu_hi = mu(lo), mu(hi)
    if not mu_lo <= target <= mu_hi:
        raise UnreachableUnfairnessError(
            f"mu = {target!r} is out of reach: the family {family} spans mu in [{mu_lo!r}, {mu_hi!r}]"
        )
    if mu_lo == target:
        return lo
    if mu_hi == target:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        f = mu(mid) - target
        if f == 0.0 or hi - lo < 1e-12:
            return mid
        if f > 0.0:
            hi = mid
        else:
            lo = mid


def _phi2_for(phi1: float, target_mu: float) -> float:
    """phi2 in (phi1, 4] where (phi1, phi2, 0, 1) has unfairness target_mu."""
    return _bisect(lambda p2: unfairness(ParameterScheme(phi1, p2, 0.0, 1.0)), target_mu,
                   phi1 + 1e-9, 4.0, f"({phi1!r}, phi2, 0, 1)")


def solve_fair_phi2(phi1: float = 2.0) -> float:
    """phi2 making (phi1, phi2, 0, 1) fairly constricted, by bisection on
    (phi1, 4].

    For phi1 = 2 this is 2 x, x the root of (x - 1)/ln x = 4/3 (the
    paper's closed form), approximately 3.4672.
    Raises UnreachableUnfairnessError when mu = 0 lies outside the
    bracket's range (no fair phi2 for this phi1, as for phi1 >= 8/3).
    """
    if not (math.isfinite(phi1) and 0.0 < phi1 < 4.0):
        raise ValueError(f"phi1 must lie in (0, 4), got {phi1!r}")
    return _phi2_for(phi1, 0.0)


def scheme_for_unfairness(target_mu: float) -> ParameterScheme:
    """A scheme whose unfairness is target_mu, from two one-parameter
    families whose bisection brackets alone set the reachable targets.

    target_mu > 0: restricted momentum (3, 5, 0, eps), mu increasing in
    eps on [1e-12, 1 - 1e-12], which reaches [1.0000889e-12, 0.42463585509636]
    (the limit 1 - 2 ln(4/3) at eps = 1 is out of reach).  Any other
    target: full momentum (2, phi2, 0, 1), mu increasing in phi2 on
    [2 + 1e-9, 4], which reaches [-0.4999999995, 0] here; 0 gives the fair
    scheme (2, 3.4672..., 0, 1).  Anything else, NaN included, raises
    UnreachableUnfairnessError, a ValueError.
    """
    if target_mu > 0.0:
        eps = _bisect(unfairness_restricted, target_mu, 1e-12, 1.0 - 1e-12, "(3, 5, 0, eps)")
        return ParameterScheme(3.0, 5.0, 0.0, eps)
    return ParameterScheme(2.0, _phi2_for(2.0, target_mu), 0.0, 1.0)
