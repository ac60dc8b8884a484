import numpy as np
import pytest
from loop_oracle import mutate_row

from fcpso.mutation import MutationConfig, apply_turbulence, polynomial_mutate
from fcpso.swarm import BoxBounds


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distribution_index": 0.0},
            {"per_variable_probability": 1.5},
            {"per_variable_probability": -0.1},
            {"particle_fraction": 2.0},
            {"per_variable_probability": True},
            {"particle_fraction": np.True_},
            {"particle_fraction": "0.5"},
            {"distribution_index": float("nan")},
            {"distribution_index": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            MutationConfig(**kwargs)


def unit_box(n):
    return BoxBounds(np.zeros(n), np.ones(n))


class TestPolynomialMutate:
    def test_zero_probability_is_identity(self, rng):
        x = rng.random((1, 8))
        cfg = MutationConfig(per_variable_probability=0.0)
        out = polynomial_mutate(x, unit_box(8), cfg, rng)
        np.testing.assert_array_equal(out, x)

    def test_midpoint_draw_leaves_variable_unchanged(self, queued_rng):
        # selection draw below prob, then the symmetric u = 1/2 perturbation
        cfg = MutationConfig(per_variable_probability=1.0)
        stub = queued_rng([0.0, 0.5])
        out = polynomial_mutate(np.array([[0.3]]), unit_box(1), cfg, stub)
        assert out[0, 0] == pytest.approx(0.3, abs=1e-15)

    def test_one_block_picks_and_holds_each_u(self, queued_rng):
        # only variable 1 is picked, and its u is entry 3 + 1; the u = 0
        # beside it would move any variable that read it
        cfg = MutationConfig(per_variable_probability=0.5)
        stub = queued_rng([0.9, 0.1, 0.9, 0.0, 0.5, 0.0])
        x = np.array([[0.3, 0.6, 0.2]])
        np.testing.assert_array_equal(polynomial_mutate(x, unit_box(3), cfg, stub), x)
        assert stub.values == []

    def test_zero_probability_draws_nothing(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        polynomial_mutate(np.full((1, 4), 0.5), unit_box(4), MutationConfig(per_variable_probability=0.0), rng)
        assert rng.bit_generator.state == state

    def test_symmetry_and_bounds(self, rng):
        cfg = MutationConfig(distribution_index=20.0, per_variable_probability=1.0)
        box = unit_box(1)
        samples = np.empty(100_000)
        for i in range(samples.shape[0]):
            samples[i] = polynomial_mutate(np.array([[0.5]]), box, cfg, rng)[0, 0]
        assert np.all(samples >= 0.0) and np.all(samples <= 1.0)
        assert abs(samples.mean() - 0.5) < 0.01

    def test_respects_untouched_dimensions(self, rng):
        cfg = MutationConfig(per_variable_probability=1.0)
        x = rng.random((1, 5)) * 10 - 5
        out = polynomial_mutate(x, BoxBounds(np.full(5, -5.0), np.full(5, 5.0)), cfg, rng)
        assert np.all(out >= -5.0) and np.all(out <= 5.0)
        assert out.shape == x.shape

    @pytest.mark.parametrize("box_width, block_width", [(2, 3), (3, 2)])
    def test_a_block_of_another_width_raises_before_any_draw(self, box_width, block_width):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        cfg = MutationConfig(per_variable_probability=1.0)
        match = rf"x has shape \(1, {block_width}\), but the box has {box_width} variables"
        with pytest.raises(ValueError, match=match):
            polynomial_mutate(np.full((1, block_width), 0.5), unit_box(box_width), cfg, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("prob", [None, 0.0, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [5.0, 20.0])
    def test_one_block_call_is_the_per_row_oracle(self, prob, eta):
        # unequal boxes; rows near and on both walls, where (1 - d)**(eta + 1)
        # weighs most
        lower, upper = np.array([0.0, -5.0, -5.0, 2.0, 0.0]), np.array([1.0, 5.0, 5.0, 3.0, 1e-3])
        u = np.random.default_rng(8).random((300, 5))
        u[::2] = u[::2] ** 4
        u[1::4] = 1.0 - u[1::4] ** 4
        X = lower + (upper - lower) * u
        X[::3, 1], X[::4, 2], X[::5, 4] = lower[1], upper[2], upper[4]
        cfg = MutationConfig(distribution_index=eta, per_variable_probability=prob)
        got_rng, want_rng = np.random.default_rng(99), np.random.default_rng(99)
        got = polynomial_mutate(X, BoxBounds(lower, upper), cfg, got_rng)
        want = np.array([mutate_row(x, lower, upper, cfg, want_rng) for x in X])
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert (got != X).any() == (prob != 0.0)

    def test_an_empty_block_draws_nothing(self):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        out = polynomial_mutate(np.empty((0, 3)), unit_box(3), MutationConfig(), rng)
        assert out.shape == (0, 3)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("x, match", [
        (np.full(3, 0.5), r"x has shape \(3,\)"),
        (np.full((2, 2, 3), 0.5), r"x has shape \(2, 2, 3\)"),
        (np.array([[0.5, 1.5, 0.5]]), "within"),
        (np.array([[0.5, 0.5, 0.5], [0.5, np.nan, 0.5]]), "within"),
        (np.array([[0.5, np.nextafter(0.0, -1.0), 0.5]]), "within"),
    ])
    def test_bad_points_raise_before_any_draw(self, x, match):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            polynomial_mutate(x, unit_box(3), MutationConfig(per_variable_probability=1.0), rng)
        assert rng.bit_generator.state == state


class TestApplyTurbulence:
    def test_zero_fraction_identity(self, rng):
        bounds = BoxBounds(np.zeros(4), np.ones(4))
        X = rng.random((10, 4))
        before = X.copy()
        apply_turbulence(X, bounds, MutationConfig(particle_fraction=0.0), rng)
        np.testing.assert_array_equal(X, before)

    def test_full_fraction_mutates_in_bounds(self, rng):
        bounds = BoxBounds(np.zeros(6), np.ones(6))
        X = rng.random((20, 6))
        before = X.copy()
        cfg = MutationConfig(particle_fraction=1.0, per_variable_probability=1.0)
        apply_turbulence(X, bounds, cfg, rng)
        changed = (X != before).any(axis=1).sum()
        assert changed >= 18  # essentially every particle moves
        assert np.all(X >= 0.0) and np.all(X <= 1.0)

    def test_velocity_and_momentum_untouched(self, rng):
        # turbulence is given the positions only; the rest of the swarm keeps
        bounds = BoxBounds(np.zeros(4), np.ones(4))
        X = rng.random((10, 4))
        V, M = np.full((10, 4), 0.25), np.full((10, 4), -0.5)
        before = X.copy()
        cfg = MutationConfig(particle_fraction=1.0, per_variable_probability=1.0)
        apply_turbulence(X, bounds, cfg, rng)
        assert not np.array_equal(X, before)  # mutated in place
        np.testing.assert_array_equal(V, 0.25)
        np.testing.assert_array_equal(M, -0.5)

    def test_selection_rate_is_binomial(self, rng):
        bounds = BoxBounds(np.zeros(3), np.ones(3))
        cfg = MutationConfig(particle_fraction=0.15, per_variable_probability=1.0)
        total = 0
        trials, swarm_size = 100, 100
        for _ in range(trials):
            X = rng.random((swarm_size, 3))
            before = X.copy()
            apply_turbulence(X, bounds, cfg, rng)
            total += (X != before).any(axis=1).sum()
        n = trials * swarm_size
        mean = 0.15 * n
        sigma = np.sqrt(n * 0.15 * 0.85)
        assert abs(total - mean) <= 3.5 * sigma

    def test_row_picks_then_one_block_per_picked_row(self):
        bounds = BoxBounds(np.zeros(4), np.ones(4))
        cfg = MutationConfig(particle_fraction=0.5)
        got, expected = np.random.default_rng(21), np.random.default_rng(21)
        apply_turbulence(np.full((9, 4), 0.4), bounds, cfg, got)
        picked = np.count_nonzero(expected.random(9) < 0.5)
        assert 0 < picked < 9
        for _ in range(picked):
            expected.random(8)
        assert got.bit_generator.state == expected.bit_generator.state

    def test_deterministic_under_seed(self):
        bounds = BoxBounds(np.zeros(4), np.ones(4))
        cfg = MutationConfig(particle_fraction=0.5, per_variable_probability=0.7)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            X = np.full((15, 4), 0.4)
            apply_turbulence(X, bounds, cfg, rng)
            outs.append(X)
        np.testing.assert_array_equal(outs[0], outs[1])
