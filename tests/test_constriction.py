import math
import re

import numpy as np
import pytest

from fcpso.constriction import (
    PHI_MAX,
    activation_event,
    chi_momentum,
    chi_vanilla,
    eigenvalues,
    evolution_matrix,
    lambda_max,
)


class TestChiVanilla:
    def test_inactive_branch(self):
        assert chi_vanilla(3.0) == 1.0

    def test_phi_4_5(self):
        # sqrt(20.25 - 18) = 1.5, 2/(2 - 4.5 - 1.5)
        assert chi_vanilla(4.5) == pytest.approx(-0.5, abs=1e-15)

    def test_phi_4_1(self):
        expected = 2.0 / (2.0 - 4.1 - math.sqrt(4.1**2 - 4 * 4.1))
        assert chi_vanilla(4.1) == pytest.approx(expected, abs=1e-15)
        assert chi_vanilla(4.1) == pytest.approx(-0.7298438, abs=1e-6)

    def test_negative_on_active_branch(self, rng):
        for phi in rng.uniform(4.0 + 1e-9, 10.0, size=200):
            assert chi_vanilla(phi) < 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            chi_vanilla(bad)


class TestChiMomentum:
    def test_inactive_below_threshold(self):
        # threshold 4/1.2 = 3.333... > 3
        assert chi_momentum(3.0, 0.2) == 1.0

    def test_phi4_beta_half(self):
        assert chi_momentum(4.0, 0.5) == pytest.approx(-1.0 / (1.0 + math.sqrt(2)), abs=1e-12)

    def test_beta_zero_reduces_to_vanilla(self):
        assert chi_momentum(4.5, 0.0) == chi_vanilla(4.5) == -0.5

    def test_reduction_on_grid(self):
        for phi in np.linspace(1e-3, 6.0, 1000):
            assert chi_momentum(float(phi), 0.0) == chi_vanilla(float(phi))

    @pytest.mark.parametrize("phi,beta", [(0.0, 0.5), (4.0, 1.5), (4.0, -0.1), (float("nan"), 0.5)])
    def test_domain_errors(self, phi, beta):
        with pytest.raises(ValueError):
            chi_momentum(phi, beta)

    def test_the_largest_phi_whose_square_is_finite(self):
        assert PHI_MAX == 1.3407807929942596e154
        assert math.isfinite(PHI_MAX * PHI_MAX)
        above = math.nextafter(PHI_MAX, math.inf)
        assert math.isinf(above * above)
        # 2 / (2 - phi - sqrt(phi^2 - 2 phi)) -> -1/phi as phi grows
        assert chi_momentum(PHI_MAX, 0.5) == -7.458340731200208e-155

    @pytest.mark.parametrize("fn", [chi_momentum, eigenvalues, lambda_max])
    @pytest.mark.parametrize("phi", [math.nextafter(PHI_MAX, math.inf), 1e200, 1e308])
    def test_active_branch_past_the_square_overflow(self, fn, phi):
        # past PHI_MAX, phi * phi is inf: chi would be -0.0, then NaN
        message = f"phi must be at most {PHI_MAX!r}, past which phi * phi overflows, got {phi!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(phi, 0.5)

    def test_what_does_not_square_phi_takes_any_finite_phi(self):
        assert activation_event(1e308, 0.5) is True
        assert evolution_matrix(1e308, 0.5)[0, 1] == 1e308


class TestActivation:
    def test_examples(self):
        assert activation_event(3.5, 0.2) is True  # 3.5 > 3.333...
        assert activation_event(2.0, 0.99) is False  # threshold ~2.0100
        assert activation_event(5.0, 0.0) is True  # vanilla phi > 4

    def test_boundary_is_inactive(self):
        beta = 0.25
        assert activation_event(4.0 / (1.0 + beta), beta) is False

    def test_active_implies_positive_discriminant(self, rng):
        for _ in range(2000):
            phi = rng.uniform(1e-3, 6.0)
            beta = rng.uniform(0.0, 1.0 - 1e-12)
            if activation_event(phi, beta):
                assert phi * phi - 4.0 * (1.0 - beta) * phi > 0.0


class TestEvolutionMatrix:
    def test_paper_substitution(self):
        expected = np.array([[0.5, 4.0, 0.5], [-0.5, -3.0, -0.5], [0.5, 0.0, 0.5]])
        np.testing.assert_array_equal(evolution_matrix(4.0, 0.5), expected)

    @pytest.mark.parametrize(
        "phi,expected",
        [
            (1.0, [[1.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
            # momentum-free degeneration: v' = v + phi y, y' = -v + (1 - phi) y, m' = v
            (2.5, [[1.0, 2.5, 0.0], [-1.0, -1.5, 0.0], [1.0, 0.0, 0.0]]),
        ],
    )
    def test_beta_zero_structure(self, phi, expected):
        np.testing.assert_array_equal(evolution_matrix(phi, 0.0), np.array(expected))

    def test_hand_example(self):
        state = np.array([1.0, 1.0, 0.0])  # [v, y, m]
        np.testing.assert_array_equal(evolution_matrix(4.0, 0.5) @ state, [4.5, -3.5, 0.5])


class TestEigenvalues:
    def test_real_case(self):
        pair = eigenvalues(4.0, 0.5)
        assert pair.discriminant == pytest.approx(8.0)
        assert pair.lambda_plus.real == pytest.approx((-2 + 2 * math.sqrt(2)) / 2, abs=1e-12)
        assert pair.lambda_minus.real == pytest.approx((-2 - 2 * math.sqrt(2)) / 2, abs=1e-12)

    def test_complex_modulus(self):
        pair = eigenvalues(1.0, 0.5)
        assert pair.discriminant < 0.0
        assert abs(pair.lambda_plus) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert abs(pair.lambda_minus) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_chi_is_reciprocal_lambda_max(self):
        pair = eigenvalues(4.5, 0.0)
        assert pair.lambda_minus.real == pytest.approx(-2.0)
        assert lambda_max(4.5, 0.0) == pytest.approx(2.0)
        assert chi_vanilla(4.5) == pytest.approx(-1.0 / lambda_max(4.5, 0.0))

    def test_trace_relation(self, rng):
        for _ in range(200):
            phi = rng.uniform(0.1, 6.0)
            beta = rng.uniform(0.0, 0.999)
            pair = eigenvalues(phi, beta)
            assert pair.lambda_plus + pair.lambda_minus == pytest.approx(2.0 - phi, abs=1e-10)

    def test_roots_are_matrix_eigenvalues(self, rng):
        # lambda+- must appear among numpy's eigenvalues of the full 3x3 matrix
        for _ in range(200):
            phi = rng.uniform(0.1, 6.0)
            beta = rng.uniform(0.0, 0.999)
            pair = eigenvalues(phi, beta)
            spectrum = np.linalg.eigvals(evolution_matrix(phi, beta))
            for lam in (pair.lambda_plus, pair.lambda_minus):
                assert np.min(np.abs(spectrum - lam)) < 1e-8

    def test_characteristic_polynomial(self, rng):
        for _ in range(200):
            phi = rng.uniform(0.1, 6.0)
            beta = rng.uniform(0.0, 0.999)
            u = evolution_matrix(phi, beta)
            pair = eigenvalues(phi, beta)
            scale = max(1.0, np.abs(u).max()) ** 3
            for lam in (pair.lambda_plus, pair.lambda_minus):
                det = np.linalg.det(u - lam * np.eye(3))
                assert abs(det) / scale <= 1e-9


class TestLambdaMax:
    def test_hand_values(self):
        assert lambda_max(4.0, 0.5) == pytest.approx((2 + 2 * math.sqrt(2)) / 2, abs=1e-12)
        assert lambda_max(4.5, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_agrees_with_eigenvalues(self, rng):
        checked = 0
        while checked < 1000:
            phi = rng.uniform(0.1, 6.0)
            beta = rng.uniform(0.0, 0.999)
            if phi * phi - 4.0 * (1.0 - beta) * phi <= 0.0:
                continue
            pair = eigenvalues(phi, beta)
            expected = max(abs(pair.lambda_plus), abs(pair.lambda_minus))
            assert lambda_max(phi, beta) == pytest.approx(expected, rel=1e-12)
            checked += 1

    def test_complex_case_rejected(self):
        with pytest.raises(ValueError):
            lambda_max(1.0, 0.5)


class TestStabilityProperties:
    def test_active_chi_times_lambda_bounded(self, rng):
        checked = 0
        while checked < 10_000:
            phi = rng.uniform(1e-3, 6.0)
            beta = rng.uniform(0.0, 1.0 - 1e-12)
            if not activation_event(phi, beta):
                continue
            assert abs(chi_momentum(phi, beta)) * lambda_max(phi, beta) <= 1.0 + 1e-12
            checked += 1

    def test_inactive_complex_case_is_stable(self, rng):
        # inactive draws with a non-positive discriminant have modulus
        # sqrt(1 - beta*phi) <= 1
        checked = 0
        while checked < 5000:
            phi = rng.uniform(1e-3, 6.0)
            beta = rng.uniform(0.0, 1.0 - 1e-12)
            disc = phi * phi - 4.0 * (1.0 - beta) * phi
            if activation_event(phi, beta) or disc > 0.0:
                continue
            pair = eigenvalues(phi, beta)
            assert abs(pair.lambda_plus) == pytest.approx(math.sqrt(1.0 - beta * phi), abs=1e-12)
            assert abs(pair.lambda_plus) <= 1.0 + 1e-12
            checked += 1


@pytest.mark.parametrize("fn", [activation_event, chi_momentum, evolution_matrix, eigenvalues, lambda_max])
@pytest.mark.parametrize(
    "phi,beta,message",
    [
        (0.0, 0.5, "phi must be finite and > 0, got 0.0"),
        (4.0, 1.5, "beta must lie in [0, 1], got 1.5"),
        (float("nan"), -0.1, "phi must be finite and > 0, got nan"),
    ],
)
def test_domain_errors_name_phi_before_beta(fn, phi, beta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(phi, beta)
