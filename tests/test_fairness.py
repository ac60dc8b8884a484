import math
import re

import numpy as np
import pytest
from scipy import integrate

from fcpso.constriction import activation_event
from fcpso.fairness import (
    FAIR_PHI2,
    ParameterScheme,
    UnreachableUnfairnessError,
    activation_probability,
    monte_carlo_activation,
    scheme_for_unfairness,
    solve_fair_phi2,
    unfairness,
    unfairness_restricted,
)
from fcpso.swarm import DynamicsConfig

LN43 = math.log(4.0 / 3.0)


def psi(x: float) -> float:
    """(x - 1)/ln x - 4/3, for x > 0, x != 1: the paper's closed form for
    phi1 = 2, whose root x gives the fair phi2 = 2 x."""
    return (x - 1.0) / math.log(x) - 4.0 / 3.0


def quad_activation_probability(scheme: ParameterScheme) -> float:
    """Independent oracle: integrate the exact inner beta-CDF over phi."""

    def p_active_given_phi(phi):
        boundary = 4.0 / phi - 1.0
        lo = max(scheme.beta1, boundary)
        if lo >= scheme.beta2:
            return 0.0
        return (scheme.beta2 - lo) / (scheme.beta2 - scheme.beta1)

    val, err = integrate.quad(
        p_active_given_phi,
        scheme.phi1,
        scheme.phi2,
        points=[scheme.phi_l, scheme.phi_g],
        limit=200,
    )
    return val / (scheme.phi2 - scheme.phi1)


def random_scheme(rng) -> ParameterScheme:
    phi1 = rng.uniform(0.5, 5.5)
    phi2 = phi1 + rng.uniform(0.05, 4.0)
    beta1 = rng.uniform(0.0, 0.9)
    beta2 = beta1 + rng.uniform(0.01, 1.0 - beta1)
    return ParameterScheme(phi1, phi2, beta1, min(beta2, 1.0))


class TestParameterScheme:
    @pytest.mark.parametrize(
        "bad",
        [(3, 3, 0, 1), (5, 3, 0, 1), (0, 3, 0, 1), (-1, 3, 0, 1), (3, 5, 0.5, 0.5), (3, 5, -0.1, 1), (3, 5, 0, 1.1)],
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            ParameterScheme(*bad)

    def test_corridor_accessors(self):
        s = ParameterScheme(3, 5, 0, 1)
        assert s.phi_l == 3.0  # max(3, 2)
        assert s.phi_g == 4.0  # min(4, 5)


class TestActivationProbability:
    def test_em_smpso_scheme(self):
        p = activation_probability(ParameterScheme(3, 5, 0, 1))
        assert p == pytest.approx((3.0 - 4.0 * LN43) / 2.0, abs=1e-14)

    def test_fair_scheme_near_half(self):
        p = activation_probability(ParameterScheme(2, 3.4672, 0, 1))
        assert p == pytest.approx(0.5, abs=5e-4)

    def test_phi_2_4(self):
        p = activation_probability(ParameterScheme(2, 4, 0, 1))
        assert p == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-14)

    def test_empty_region(self):
        # even the largest phi stays below the smallest threshold 4/(1+beta2)
        assert activation_probability(ParameterScheme(1.0, 1.5, 0.0, 0.2)) == 0.0

    def test_total_region(self):
        assert activation_probability(ParameterScheme(4.2, 5.0, 0.0, 1.0)) == 1.0

    def test_a_phi2_past_phi_max_is_still_a_scheme(self):
        # the calculus never squares phi; only DynamicsConfig refuses it
        scheme = ParameterScheme(2.0, 1.7e308)
        assert activation_probability(scheme) == pytest.approx(1.0, abs=1e-15)
        assert monte_carlo_activation(scheme, 1000, seed=0).p_activation == 1.0

    def test_against_quadrature_oracle(self, rng):
        for _ in range(30):
            s = random_scheme(rng)
            assert activation_probability(s) == pytest.approx(
                quad_activation_probability(s), abs=1e-9
            )

    def test_against_monte_carlo(self, rng):
        for _ in range(20):
            s = random_scheme(rng)
            report = monte_carlo_activation(s, 10**6, seed=int(rng.integers(1 << 31)))
            tol = max(4.0 * report.std_error, 4.0 * math.sqrt(0.25 / 10**6))
            assert abs(activation_probability(s) - report.p_activation) <= tol

    def test_bounds_fuzz(self, rng):
        for _ in range(300):
            s = random_scheme(rng)
            p = activation_probability(s)
            assert 0.0 <= p <= 1.0
            assert abs(unfairness(s)) <= 0.5

    def test_surface_formula(self):
        # closed form 2 - 4 ln(phi2/phi1)/(phi2-phi1) on phi1 >= 2, phi2 <= 4
        for phi1 in np.linspace(2.0, 3.6, 9):
            for phi2 in np.linspace(phi1 + 0.05, 4.0, 9):
                expected = 2.0 - 4.0 * math.log(phi2 / phi1) / (phi2 - phi1)
                got = activation_probability(ParameterScheme(float(phi1), float(phi2), 0, 1))
                assert got == pytest.approx(expected, abs=1e-12)


class TestUnfairness:
    def test_em_smpso_value(self):
        assert unfairness(ParameterScheme(3, 5, 0, 1)) == pytest.approx(1 - 2 * LN43, abs=1e-14)

    def test_fair_scheme(self):
        assert unfairness(ParameterScheme(2, 3.4672, 0, 1)) == pytest.approx(0.0, abs=5e-4)

    def test_empty_region_floor(self):
        assert unfairness(ParameterScheme(1.0, 1.5, 0.0, 0.2)) == -0.5


class TestRestrictedMomentum:
    def test_branch_continuity(self):
        eps = 1.0 / 3.0
        left = unfairness_restricted(eps - 1e-12)
        right = unfairness_restricted(eps)
        assert left == pytest.approx(right, abs=1e-9)
        assert right == pytest.approx(2.0 * (1.0 - 3.0 * LN43), abs=1e-12)

    def test_almost_fair_limit(self):
        assert unfairness_restricted(1e-8) == pytest.approx(0.0, abs=1e-7)

    def test_near_one(self):
        # branch-2 formula at eps = 0.999
        expected = 0.5 * (1.0 - (4.0 * LN43 - 1.0) / 0.999)
        got = unfairness_restricted(0.999)
        assert got == pytest.approx(expected, abs=1e-14)
        assert got == pytest.approx(0.42456, abs=1e-5)
        # consistent with the full-momentum value as eps -> 1
        assert got == pytest.approx(1 - 2 * LN43, abs=2e-4)

    def test_agrees_with_general_integral(self):
        for eps in np.linspace(0.01, 0.999, 50):
            assert unfairness_restricted(float(eps)) == pytest.approx(
                unfairness(ParameterScheme(3, 5, 0, float(eps))), abs=1e-12
            )

    def test_strictly_increasing_and_positive(self):
        grid = np.linspace(1e-4, 1.0 - 1e-9, 1000)
        values = [unfairness_restricted(float(e)) for e in grid]
        assert all(v > 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_slope_near_zero_approaches_one(self):
        h = 1e-6
        slope = unfairness_restricted(h) / h  # mu(0+) = 0
        assert slope == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            unfairness_restricted(bad)


class TestMonteCarlo:
    def test_close_to_closed_form(self):
        report = monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 10**6, seed=5)
        assert abs(report.p_activation - 0.9246358550964383) <= 0.002

    def test_empty_region_exact_zero(self):
        report = monte_carlo_activation(ParameterScheme(1.0, 1.5, 0.0, 0.2), 10_000, seed=0)
        assert report.p_activation == 0.0

    def test_deterministic(self):
        a = monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 50_000, seed=9)
        b = monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 50_000, seed=9)
        assert a == b

    def test_report_consistency(self):
        r = monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 1000, seed=2)
        assert r.sample_count == 1000
        assert r.p_activation == pytest.approx(r.unfairness + 0.5)

    @pytest.mark.parametrize("scheme", [
        ParameterScheme(2.0, FAIR_PHI2, 0.0, 1.0),
        ParameterScheme(3.0, 5.0, 0.0, 0.3),
        ParameterScheme(2.5, 4.5, 0.1, 0.9),
    ])
    def test_hits_are_the_activation_events_of_the_same_draws(self, scheme):
        samples, seed = 5000, 11
        rng = np.random.default_rng(seed)
        phi = rng.uniform(scheme.phi1, scheme.phi2, size=samples)
        beta = rng.uniform(scheme.beta1, scheme.beta2, size=samples)
        hits = sum(activation_event(float(p), float(b)) for p, b in zip(phi, beta))
        assert 0 < hits < samples
        assert monte_carlo_activation(scheme, samples, seed=seed).p_activation == hits / samples

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 0)
        for samples, seed, refusal in [
            (2.5, 0, "samples must be an integer, got 2.5"),
            (True, 0, "samples must be an integer, got True"),
            (100, -1, "seed must be >= 0, got -1"),
            (100, 1.5, "seed must be an integer, got 1.5"),
        ]:
            with pytest.raises(ValueError, match=refusal):
                monte_carlo_activation(ParameterScheme(3, 5, 0, 1), samples, seed=seed)


class TestSolveFairPhi2:
    def test_paper_root(self):
        phi2 = solve_fair_phi2(2.0)
        assert 3.4667 <= phi2 <= 3.4677
        assert phi2 == 3.4672019777575853  # bitwise the bisection's root

    def test_root_is_fair(self):
        phi2 = solve_fair_phi2(2.0)
        assert abs(unfairness(ParameterScheme(2.0, phi2, 0, 1))) <= 1e-6

    def test_psi_brackets(self):
        assert psi(2.0) > 0.0  # 1/ln 2 - 4/3
        assert psi(1.0 + 1e-9) < 0.0  # limit -1/3
        assert psi(2.0) == pytest.approx(1.0 / math.log(2.0) - 4.0 / 3.0, abs=1e-14)

    def test_psi_root_matches(self):
        phi2 = solve_fair_phi2(2.0)
        assert psi(phi2 / 2.0) == pytest.approx(0.0, abs=1e-6)

    def test_no_root_for_large_phi1(self):
        # mu > 0 on the whole bracket once phi1 >= 8/3
        with pytest.raises(UnreachableUnfairnessError, match=r"mu = 0.0 is out of reach: the family \(3.0, phi2"):
            solve_fair_phi2(3.0)

    @pytest.mark.parametrize("phi1", [0.0, 4.0, -1.0, float("nan")])
    def test_phi1_outside_zero_to_four_is_refused(self, phi1):
        with pytest.raises(ValueError, match=re.escape(f"phi1 must lie in (0, 4), got {phi1!r}")):
            solve_fair_phi2(phi1)


class TestSchemeForUnfairness:
    def test_target_zero_is_fair_scheme(self):
        s = scheme_for_unfairness(0.0)
        assert s.phi1 == 2.0
        assert s.phi2 == pytest.approx(3.4672, abs=5e-4)
        assert (s.beta1, s.beta2) == (0.0, 1.0)

    def test_branch_boundary_target(self):
        s = scheme_for_unfairness(2.0 * (1.0 - 3.0 * LN43))  # ~0.27391
        assert (s.phi1, s.phi2) == (3.0, 5.0)
        assert s.beta2 == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_strongly_under_constricted(self):
        s = scheme_for_unfairness(-0.49)
        assert s.phi1 == 2.0
        assert 2.0 < s.phi2 < 2.2
        assert unfairness(s) == pytest.approx(-0.49, abs=1e-6)

    def test_targets_hit_within_tolerance(self):
        for target in [-0.45, -0.3, -0.1, 0.05, 0.2, 0.35, 0.42]:
            s = scheme_for_unfairness(target)
            assert abs(unfairness(s) - target) <= 1e-6

    # the schemes the bisection gives for the acceptance profile's grid and
    # for 0: a change to a bracket, a bisected function or the order of
    # the midpoints moves one of them
    PINNED = {
        -0.44: (2.0, 2.1249737533983595, 0.0, 1.0),
        -0.3: (2.0, 2.4603255620986104, 0.0, 1.0),
        -0.15: (2.0, 2.904614755798953, 0.0, 1.0),
        -0.05: (2.0, 3.2640771164725066, 0.0, 1.0),
        0.0: (2.0, 3.4672019777575853, 0.0, 1.0),
        0.05: (3.0, 5.0, 0.0, 0.05171665742226267),
        0.15: (3.0, 5.0, 0.0, 0.16643076984949723),
        0.25: (3.0, 5.0, 0.0, 0.29871203904980814),
        0.32: (3.0, 5.0, 0.0, 0.41868969390878086),
        0.38: (3.0, 5.0, 0.0, 0.6280345408633534),
        0.42: (3.0, 5.0, 0.0, 0.9420518112943026),
    }

    @pytest.mark.parametrize("target", sorted(PINNED))
    def test_reachable_targets_give_the_pinned_scheme(self, target):
        assert scheme_for_unfairness(target).as_tuple() == self.PINNED[target]

    @pytest.mark.parametrize("bad", [
        1.0 - 2.0 * LN43,  # the restricted family's limit at eps = 1
        -0.4999999999,  # between -0.5 and the full family's lower end
        1e-13,  # between 0 and the restricted family's lower end
        0.43, 0.49, 0.5, -0.5, -0.6, float("nan"), float("inf"), -float("inf"),
    ])
    def test_unreachable(self, bad):
        # refused by name, and both ends of the range the message gives are reached
        with pytest.raises(UnreachableUnfairnessError, match=f"^mu = {re.escape(repr(bad))} is out of reach: ") as caught:
            scheme_for_unfairness(bad)
        family, ends = str(caught.value).split(": ")[1].split(" spans mu in ")
        assert family.startswith("the family (")
        for end in ends.strip("[]").split(", "):
            assert isinstance(scheme_for_unfairness(float(end)), ParameterScheme)


def test_fcpso_default_scheme_is_nearly_fair():
    assert abs(unfairness(DynamicsConfig().scheme)) <= 5e-4
