import math

import numpy as np
import pytest

from fcpso.constriction import chi_momentum
from fcpso.fairness import ParameterScheme
from fcpso.problems import get_problem
from fcpso.swarm import (
    BoxBounds,
    DynamicsConfig,
    Particle,
    compute_speed_em,
    compute_speed_smpso,
    default_scheme,
    draw_coefficients,
    initialize_swarm,
    update_pbest,
    update_position,
    velocity_constriction,
)


def particle(x, v=0.0, m=0.0, pbest=None):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pb = x.copy() if pbest is None else np.atleast_1d(np.asarray(pbest, dtype=float))
    return Particle(
        position=x,
        velocity=np.full_like(x, float(v)),
        momentum=np.full_like(x, float(m)),
        pbest_position=pb,
        pbest_objectives=np.array([0.0, 0.0]),
    )


WIDE = BoxBounds(np.array([-1e9]), np.array([1e9]))


class TestBoxBounds:
    def test_delta(self):
        b = BoxBounds(np.array([0.0, -5.0]), np.array([10.0, 5.0]))
        np.testing.assert_array_equal(b.delta, [5.0, 5.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            BoxBounds(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            BoxBounds(np.array([0.0, 2.0]), np.array([1.0, 1.0]))


class TestDefaults:
    def test_variant_schemes(self):
        assert default_scheme("smpso").as_tuple() == (3.0, 5.0, 0.0, 1.0)
        assert default_scheme("em-smpso").as_tuple() == (3.0, 5.0, 0.0, 1.0)
        assert default_scheme("fcpso").as_tuple() == (2.0, 3.4672, 0.0, 1.0)
        with pytest.raises(ValueError):
            default_scheme("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(variant="bogus")
        with pytest.raises(ValueError):
            DynamicsConfig(swarm_size=1)
        with pytest.raises(ValueError):
            DynamicsConfig(velocity_init="sideways")


class TestComputeSpeedSmpso:
    def test_hand_example_inactive_chi(self):
        p = particle(0.0, v=1.0, pbest=1.0)
        coefficients = (0.5, 0.5, 2.0, 2.0)  # r1, r2, c1, c2 -> phi = 4
        bounds = BoxBounds(np.array([0.0]), np.array([10.0]))  # delta 5
        v = compute_speed_smpso(p, np.array([1.0]), coefficients, 0.1, bounds)
        assert v[0] == pytest.approx(2.1, abs=1e-12)

    def test_hand_example_active_chi(self):
        p = particle(0.0, v=1.0, pbest=1.0)
        coefficients = (0.5, 0.5, 2.25, 2.25)  # phi = 4.5 -> chi = -0.5
        bounds = BoxBounds(np.array([0.0]), np.array([10.0]))
        v = compute_speed_smpso(p, np.array([1.0]), coefficients, 0.1, bounds)
        assert v[0] == pytest.approx(-1.175, abs=1e-12)

    def test_zero_displacement_leaves_inertia_term(self):
        p = particle(0.7, v=1.0, pbest=0.7)
        v = compute_speed_smpso(p, np.array([0.7]), (0.5, 0.5, 2.0, 2.0), 0.1, WIDE)
        assert v[0] == pytest.approx(0.1, abs=1e-15)

    def test_velocity_clamped(self):
        p = particle(0.0, v=1.0)
        bounds = BoxBounds(np.array([0.0]), np.array([1.0]))  # delta 0.5
        v = compute_speed_smpso(p, np.array([1.0]), (1.0, 1.0, 2.0, 2.0), 0.1, bounds)
        assert v[0] == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compute_speed_smpso(particle([0.0, 0.0]), np.array([1.0]), (0.5, 0.5, 2.0, 2.0), 0.1)


class TestComputeSpeedEm:
    def test_hand_example(self):
        p = particle(0.0, v=1.0, m=0.0, pbest=1.0)
        coefficients = (0.5, 0.5, 2.0, 2.0, 0.5)  # r1, r2, c1, c2, beta
        v, m = compute_speed_em(p, np.array([1.0]), coefficients, WIDE)
        assert m[0] == pytest.approx(0.5)
        assert v[0] == pytest.approx(chi_momentum(4.0, 0.5) * 2.5, abs=1e-12)
        assert v[0] == pytest.approx(-1.0355339, abs=1e-6)

    def test_beta_zero_matches_inertia_one_smpso(self):
        p1 = particle(0.2, v=0.8, m=0.0)
        p2 = particle(0.2, v=0.8)
        draws = (0.3, 0.9, 2.1, 1.7)
        v_em, m_em = compute_speed_em(p1, np.array([1.0]), draws + (0.0,), WIDE)
        v_sm = compute_speed_smpso(p2, np.array([1.0]), draws, 1.0, WIDE)
        assert v_em[0] == pytest.approx(v_sm[0], abs=1e-15)
        assert m_em[0] == 0.8  # beta = 0 copies the previous velocity

    def test_rest_state_is_fixed_point(self):
        p = particle(0.4, v=0.0, m=0.0, pbest=0.4)
        v, m = compute_speed_em(p, np.array([0.4]), (0.5, 0.5, 1.2, 1.2, 0.7), WIDE)
        assert v[0] == 0.0 and m[0] == 0.0

    def test_momentum_recursion_matches_exponential_sum(self):
        # m(T) must equal sum_s beta^(T-1-s) (1-beta) v(s) for constant beta
        beta, steps = 0.6, 25
        p = particle(0.0, v=1.0, m=0.0, pbest=0.3)
        gbest = np.array([0.9])
        rng = np.random.default_rng(4)
        velocities = []
        for _ in range(steps):
            velocities.append(p.velocity[0])
            r1, r2 = rng.uniform(), rng.uniform()
            draws = (r1, r2, rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5), beta)
            p.velocity, p.momentum = compute_speed_em(p, gbest, draws, WIDE)
        expected = sum(
            beta ** (steps - 1 - s) * (1.0 - beta) * v for s, v in enumerate(velocities)
        )
        assert p.momentum[0] == pytest.approx(expected, abs=1e-10)


class TestDrawCoefficients:
    @pytest.mark.parametrize("momentum", [False, True])
    def test_scripted_draws_map_onto_the_scheme(self, queued_rng, momentum):
        scheme = ParameterScheme(2.0, 3.0, 0.1, 0.4)
        draws = [0.25, 0.5, 0.0, 1.0, 0.5]
        coefficients = draw_coefficients(scheme, queued_rng(draws), momentum)
        expected = (0.25, 0.5, 1.0, 1.5, 0.25)
        assert coefficients == pytest.approx(expected[: 5 if momentum else 4], abs=1e-15)


class TestUpdatePosition:
    def test_interior_move(self):
        p = particle(0.5, v=0.2)
        update_position(p, BoxBounds(np.array([0.0]), np.array([1.0])))
        assert p.position[0] == pytest.approx(0.7)
        assert p.velocity[0] == pytest.approx(0.2)

    def test_reflection_at_wall(self):
        p = particle(0.9, v=0.3)
        update_position(p, BoxBounds(np.array([0.0]), np.array([1.0])))
        assert p.position[0] == 1.0
        assert p.velocity[0] == pytest.approx(-0.3)

    def test_lower_wall(self):
        p = particle(0.1, v=-0.5)
        update_position(p, BoxBounds(np.array([0.0]), np.array([1.0])))
        assert p.position[0] == 0.0
        assert p.velocity[0] == pytest.approx(0.5)

    def test_zero_velocity(self):
        p = particle(0.4, v=0.0)
        update_position(p, BoxBounds(np.array([0.0]), np.array([1.0])))
        assert p.position[0] == 0.4


class TestVelocityConstriction:
    def test_clamps(self):
        b = BoxBounds(np.array([0.0]), np.array([10.0]))
        assert velocity_constriction(np.array([7.0]), b)[0] == 5.0
        assert velocity_constriction(np.array([-7.0]), b)[0] == -5.0
        assert velocity_constriction(np.array([3.0]), b)[0] == 3.0


class TestInitializeSwarm:
    def test_positions_in_bounds_state_zeroed(self):
        problem = get_problem("zdt4")
        cfg = DynamicsConfig(variant="fcpso", swarm_size=100)
        swarm = initialize_swarm(problem, cfg, np.random.default_rng(3))
        assert len(swarm) == 100
        for p in swarm:
            assert np.all(p.position >= problem.bounds.lower)
            assert np.all(p.position <= problem.bounds.upper)
            assert np.all(p.velocity == 0.0)
            assert np.all(p.momentum == 0.0)
            np.testing.assert_array_equal(p.pbest_position, p.position)
            np.testing.assert_allclose(p.pbest_objectives, problem.evaluate(p.position))

    def test_deterministic(self):
        problem = get_problem("zdt1")
        cfg = DynamicsConfig(variant="smpso", swarm_size=10)
        a = initialize_swarm(problem, cfg, np.random.default_rng(5))
        b = initialize_swarm(problem, cfg, np.random.default_rng(5))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.position, pb.position)

    def test_uniform_velocity_option(self):
        problem = get_problem("zdt1")
        cfg = DynamicsConfig(variant="smpso", swarm_size=20, velocity_init="uniform")
        swarm = initialize_swarm(problem, cfg, np.random.default_rng(6))
        speeds = np.stack([p.velocity for p in swarm])
        assert np.any(speeds != 0.0)
        assert np.all(np.abs(speeds) <= problem.bounds.delta)


class TestUpdatePbest:
    def test_dominating_newcomer_replaces(self, rng):
        p = particle([0.5, 0.5])
        p.pbest_objectives = np.array([2.0, 2.0])
        p.position = np.array([0.1, 0.2])
        update_pbest(p, np.array([1.0, 1.0]), rng)
        np.testing.assert_array_equal(p.pbest_objectives, [1.0, 1.0])
        np.testing.assert_array_equal(p.pbest_position, [0.1, 0.2])

    def test_dominated_newcomer_kept_out(self, rng):
        p = particle([0.5, 0.5])
        p.pbest_objectives = np.array([1.0, 1.0])
        old_pos = p.pbest_position.copy()
        update_pbest(p, np.array([2.0, 2.0]), rng)
        np.testing.assert_array_equal(p.pbest_objectives, [1.0, 1.0])
        np.testing.assert_array_equal(p.pbest_position, old_pos)

    def test_tie_replaces_half_the_time(self):
        rng = np.random.default_rng(8)
        replaced = 0
        trials = 10_000
        for _ in range(trials):
            p = particle([0.5, 0.5])
            p.pbest_objectives = np.array([3.0, 1.0])
            update_pbest(p, np.array([1.0, 3.0]), rng)
            replaced += int(np.array_equal(p.pbest_objectives, [1.0, 3.0]))
        assert abs(replaced / trials - 0.5) <= 0.05

    @pytest.mark.parametrize(
        "record,newcomer,draws,replaced",
        [
            ([1.0, 1.0], [2.0, 2.0], False, False),  # the record dominates
            ([1.0, 2.0], [1.0, 3.0], False, False),  # ... with one objective tied
            ([2.0, 2.0], [1.0, 1.0], False, True),  # the newcomer dominates
            ([1.0, 3.0], [1.0, 2.0], False, True),
            ([3.0, 1.0], [1.0, 3.0], True, True),  # mutually non-dominated
            ([1.0, 1.0], [1.0, 1.0], True, True),  # equal
        ],
    )
    def test_draws_only_when_neither_dominates(self, queued_rng, record, newcomer, draws, replaced):
        p = particle([0.5, 0.5])
        p.pbest_objectives = np.array(record)
        p.position = np.array([0.1, 0.2])
        rng = queued_rng([0.25])  # a draw below 1/2 replaces
        update_pbest(p, np.array(newcomer), rng)
        assert rng.values == ([] if draws else [0.25])
        np.testing.assert_array_equal(p.pbest_objectives, newcomer if replaced else record)
        np.testing.assert_array_equal(p.pbest_position, [0.1, 0.2] if replaced else [0.5, 0.5])


class TestIterationInvariants:
    def test_velocity_cap_and_bounds_hold_over_iterations(self, rng):
        problem = get_problem("zdt1")
        bounds = problem.bounds
        cfg = DynamicsConfig(variant="em-smpso", swarm_size=20)
        swarm = initialize_swarm(problem, cfg, rng)
        for _ in range(40):
            gbest = swarm[int(rng.integers(len(swarm)))].pbest_position
            for p in swarm:
                coefficients = draw_coefficients(cfg.scheme, rng, True)
                p.velocity, p.momentum = compute_speed_em(p, gbest, coefficients, bounds)
                update_position(p, bounds)
            for p in swarm:
                assert np.all(np.abs(p.velocity) <= bounds.delta + 1e-12)
                assert np.all(p.position >= bounds.lower - 1e-12)
                assert np.all(p.position <= bounds.upper + 1e-12)


def test_custom_scheme_drives_em_update(rng):
    # a custom scheme must keep every draw inside chi's domain and produce
    # finite state under repeated updates
    scheme = ParameterScheme(2.0, 3.0, 0.1, 0.4)
    cfg = DynamicsConfig(variant="em-smpso", scheme=scheme)
    p = particle(0.0, v=0.0, m=0.0, pbest=1.0)
    for _ in range(500):
        coefficients = draw_coefficients(cfg.scheme, rng, True)
        p.velocity, p.momentum = compute_speed_em(p, np.array([1.0]), coefficients, WIDE)
        assert np.isfinite(p.velocity).all() and np.isfinite(p.momentum).all()
