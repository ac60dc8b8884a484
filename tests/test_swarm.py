import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_oracle import Particle, dominates, initial_swarm, remember

from fcpso.constriction import PHI_MAX, chi_momentum
from fcpso.fairness import ParameterScheme
from fcpso.problems import get_problem
from fcpso.swarm import (
    VARIANTS,
    BoxBounds,
    DynamicsConfig,
    Swarm,
    compute_speed_em,
    compute_speed_smpso,
    draw_coefficients,
    initialize_swarm,
    update_pbest,
    update_position,
)


def block(x, v=0.0, pbest_objectives=(0.0, 0.0)):
    """A swarm whose rows are the rows of ``x``, remembered as their own
    personal bests; velocities and pbest objectives broadcast."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    F = np.atleast_2d(np.asarray(pbest_objectives, dtype=float))
    return Swarm(
        positions=x.copy(),
        velocities=np.broadcast_to(np.asarray(v, dtype=float), x.shape).copy(),
        momenta=np.zeros_like(x),
        pbest_positions=x.copy(),
        pbest_objectives=np.broadcast_to(F, (x.shape[0], F.shape[1])).copy(),
    )


def one(value):
    return np.array([float(value)])


WIDE = BoxBounds(np.array([-1e9]), np.array([1e9]))
UNIT = BoxBounds(np.array([0.0]), np.array([1.0]))


class TestBoxBounds:
    def test_delta(self):
        b = BoxBounds(np.array([0.0, -5.0]), np.array([10.0, 5.0]))
        np.testing.assert_array_equal(b.delta, [5.0, 5.0])
        np.testing.assert_array_equal(b.neg_delta, [-5.0, -5.0])

    @pytest.mark.parametrize(
        "lower,upper,message",
        [
            ([1.0], [1.0], "strictly below"),
            ([0.0, 2.0], [1.0, 1.0], "strictly below"),
            ([0.0, 0.0], [1.0], "1-D arrays of equal length"),
            ([[0.0, 0.0]], [[1.0, 1.0]], "1-D arrays of equal length"),
            ([-np.inf, 0.0], [np.inf, 1.0], "bound and width must be finite"),
            ([0.0], [np.inf], "bound and width must be finite"),
            ([-1e308], [1e308], "bound and width must be finite"),
            ([np.nan], [1.0], "bound and width must be finite"),
            ([0.0], [np.nan], "bound and width must be finite"),
        ],
    )
    # a width that overflows is refused without numpy's overflow warning
    @pytest.mark.filterwarnings("error")
    def test_validation(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            BoxBounds(np.array(lower), np.array(upper))

    def test_the_box_keeps_its_own_copies(self):
        lower, upper = np.zeros(2), np.ones(2)
        b = BoxBounds(lower, upper)
        lower[0], upper[1] = 0.9, 0.1
        np.testing.assert_array_equal(b.lower, [0.0, 0.0])
        np.testing.assert_array_equal(b.upper, [1.0, 1.0])
        np.testing.assert_array_equal(b.delta, [0.5, 0.5])

    @pytest.mark.parametrize("name", ["lower", "upper", "delta", "neg_delta"])
    def test_each_array_refuses_a_write(self, name):
        a = getattr(BoxBounds(np.zeros(2), np.ones(2)), name)
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.25


class TestDefaults:
    def test_variant_schemes(self):
        assert DynamicsConfig(variant="smpso").scheme.as_tuple() == (3.0, 5.0, 0.0, 1.0)
        assert DynamicsConfig(variant="em-smpso").scheme.as_tuple() == (3.0, 5.0, 0.0, 1.0)
        assert DynamicsConfig(variant="fcpso").scheme.as_tuple() == (2.0, 3.4672, 0.0, 1.0)
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            DynamicsConfig(variant="nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(variant="bogus")
        with pytest.raises(ValueError):
            DynamicsConfig(swarm_size=1)
        for inertia in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="inertia must be finite"):
                DynamicsConfig(variant="smpso", inertia=inertia)

    @pytest.mark.parametrize("swarm_size", [2.5, 20.0, True])
    def test_a_non_integer_swarm_size_is_refused(self, swarm_size):
        with pytest.raises(ValueError, match=f"swarm_size must be an integer, got {swarm_size!r}"):
            DynamicsConfig(swarm_size=swarm_size)
        assert DynamicsConfig(swarm_size=np.int64(20)).swarm_size == 20

    def test_only_smpso_has_an_inertia(self):
        assert DynamicsConfig(variant="smpso").inertia == 0.1
        assert DynamicsConfig(variant="smpso", inertia=0.4).inertia == 0.4
        for variant in ("em-smpso", "fcpso"):
            assert DynamicsConfig(variant=variant).inertia is None
            for inertia in (0.1, 0.9):
                with pytest.raises(ValueError, match=f"inertia applies to smpso only, and the variant is {variant}"):
                    DynamicsConfig(variant=variant, inertia=inertia)

    def test_smpso_takes_no_beta_bounds(self):
        assert DynamicsConfig(variant="smpso", scheme=ParameterScheme(2.5, 4.5)).scheme.phi2 == 4.5
        for betas in ((0.2, 0.8), (0.0, 0.5), (0.5, 1.0)):
            with pytest.raises(ValueError, match="scheme: smpso draws no beta"):
                DynamicsConfig(variant="smpso", scheme=ParameterScheme(3.0, 5.0, *betas))
        assert DynamicsConfig(variant="em-smpso", scheme=ParameterScheme(3.0, 5.0, 0.2, 0.8)).scheme.beta1 == 0.2

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("phi2, refused", [
        (1.7e308, True),
        (1e200, True),
        (PHI_MAX, False),
        # c at the largest draw rounds to PHI_MAX / 2 here, so no sum passes
        (math.nextafter(PHI_MAX, math.inf), False),
        (math.nextafter(PHI_MAX, math.inf) * (1.0 + 2.0**-50), True),
    ])
    def test_a_scheme_whose_draws_can_pass_phi_max_is_refused(self, queued_rng, variant, phi2, refused):
        scheme = ParameterScheme(2.0, phi2)
        # the largest c1 + c2 the scheme can draw: at rng.random's largest draw
        (_, _, c1, c2) = draw_coefficients(scheme, queued_rng([1.0 - 2.0**-53] * 4), False, 1)[0]
        assert (c1 + c2 > PHI_MAX) == refused
        if not refused:
            assert DynamicsConfig(variant=variant, scheme=scheme).scheme == scheme
            return
        with pytest.raises(ValueError, match=re.escape(f"scheme: a drawn c1 + c2 can pass {PHI_MAX!r}")):
            DynamicsConfig(variant=variant, scheme=scheme)


class TestComputeSpeedSmpso:
    def test_hand_example_inactive_chi(self):
        coefficients = (0.5, 0.5, 2.0, 2.0)  # r1, r2, c1, c2 -> phi = 4
        bounds = BoxBounds(np.array([0.0]), np.array([10.0]))  # delta 5
        v = compute_speed_smpso(one(0.0), one(1.0), one(1.0), one(1.0), coefficients, 0.1, bounds)
        assert v[0] == pytest.approx(2.1, abs=1e-12)

    def test_hand_example_active_chi(self):
        coefficients = (0.5, 0.5, 2.25, 2.25)  # phi = 4.5 -> chi = -0.5
        bounds = BoxBounds(np.array([0.0]), np.array([10.0]))
        v = compute_speed_smpso(one(0.0), one(1.0), one(1.0), one(1.0), coefficients, 0.1, bounds)
        assert v[0] == pytest.approx(-1.175, abs=1e-12)

    def test_zero_displacement_leaves_inertia_term(self):
        v = compute_speed_smpso(one(0.7), one(1.0), one(0.7), one(0.7), (0.5, 0.5, 2.0, 2.0), 0.1, WIDE)
        assert v[0] == pytest.approx(0.1, abs=1e-15)

    def test_velocity_clamped(self):
        bounds = BoxBounds(np.array([0.0]), np.array([1.0]))  # delta 0.5
        v = compute_speed_smpso(one(0.0), one(1.0), one(0.0), one(1.0), (1.0, 1.0, 2.0, 2.0), 0.1, bounds)
        assert v[0] == 0.5

    def test_dimension_mismatch(self):
        x = np.zeros(2)
        bounds = BoxBounds(np.full(2, -1.0), np.ones(2))
        with pytest.raises(ValueError):
            compute_speed_smpso(x, x, x, np.array([1.0]), (0.5, 0.5, 2.0, 2.0), 0.1, bounds)


class TestComputeSpeedEm:
    def test_hand_example(self):
        coefficients = (0.5, 0.5, 2.0, 2.0, 0.5)  # r1, r2, c1, c2, beta
        v, m = compute_speed_em(one(0.0), one(1.0), one(0.0), one(1.0), one(1.0), coefficients, WIDE)
        assert m[0] == pytest.approx(0.5)
        assert v[0] == pytest.approx(chi_momentum(4.0, 0.5) * 2.5, abs=1e-12)
        assert v[0] == pytest.approx(-1.0355339, abs=1e-6)

    def test_beta_zero_matches_inertia_one_smpso(self):
        x, v, pbest, gbest = one(0.2), one(0.8), one(0.2), one(1.0)
        draws = (0.3, 0.9, 2.1, 1.7)
        v_em, m_em = compute_speed_em(x, v, one(0.0), pbest, gbest, draws + (0.0,), WIDE)
        v_sm = compute_speed_smpso(x, v, pbest, gbest, draws, 1.0, WIDE)
        assert v_em[0] == v_sm[0]
        assert m_em[0] == 0.8  # beta = 0 copies the previous velocity

    def test_rest_state_is_fixed_point(self):
        x = one(0.4)
        v, m = compute_speed_em(x, one(0.0), one(0.0), x, x, (0.5, 0.5, 1.2, 1.2, 0.7), WIDE)
        assert v[0] == 0.0 and m[0] == 0.0

    def test_momentum_recursion_matches_exponential_sum(self):
        # m(T) must equal sum_s beta^(T-1-s) (1-beta) v(s) for constant beta
        beta, steps = 0.6, 25
        x, v, m, pbest, gbest = one(0.0), one(1.0), one(0.0), one(0.3), one(0.9)
        rng = np.random.default_rng(4)
        velocities = []
        for _ in range(steps):
            velocities.append(v[0])
            r1, r2 = rng.uniform(), rng.uniform()
            draws = (r1, r2, rng.uniform(1.5, 2.5), rng.uniform(1.5, 2.5), beta)
            v, m = compute_speed_em(x, v, m, pbest, gbest, draws, WIDE)
        expected = sum(
            beta ** (steps - 1 - s) * (1.0 - beta) * v for s, v in enumerate(velocities)
        )
        assert m[0] == pytest.approx(expected, abs=1e-10)


def smpso_kernel(x, v, pbest, gbest, coefficients, bounds):
    return compute_speed_smpso(x, v, pbest, gbest, coefficients, 0.5, bounds)


def em_kernel(x, v, pbest, gbest, coefficients, bounds):
    return compute_speed_em(x, v, np.zeros_like(v), pbest, gbest, (*coefficients, 0.5), bounds)[0]


@pytest.mark.parametrize("kernel", [smpso_kernel, em_kernel])
@pytest.mark.parametrize("pull, expected", [(3.0, 0.5), (-3.0, -0.5), (0.2, None)])
def test_a_kernel_clamps_each_component_to_the_box(kernel, pull, expected):
    # r1 = r2 = 1 and c1 + c2 = 1 < 4 keep chi at 1, so an unclamped
    # component is pull + the carried term; UNIT's delta is 0.5
    x, v = np.zeros(3), np.array([0.0, 0.1, -0.1])
    target = np.full(3, pull)
    velocity = kernel(x, v, target, target, (1.0, 1.0, 0.5, 0.5), UNIT)
    unclamped = kernel(x, v, target, target, (1.0, 1.0, 0.5, 0.5), WIDE)
    if expected is None:
        assert np.all(np.abs(unclamped) < 0.5)
        np.testing.assert_array_equal(velocity, unclamped)
    else:
        np.testing.assert_array_equal(velocity, np.full(3, expected))


class TestDrawCoefficients:
    @pytest.mark.parametrize("momentum", [False, True])
    def test_scripted_draws_map_onto_the_scheme(self, queued_rng, momentum):
        scheme = ParameterScheme(2.0, 3.0, 0.1, 0.4)
        rows = [[0.25, 0.5, 0.0, 1.0, 0.5], [0.0, 1.0, 0.5, 0.5, 1.0]]
        k = 5 if momentum else 4
        stub = queued_rng([u for row in rows for u in row[:k]])
        coefficients = draw_coefficients(scheme, stub, momentum, 2)
        expected = [[0.25, 0.5, 1.0, 1.5, 0.25], [0.0, 1.0, 1.25, 1.25, 0.4]]
        np.testing.assert_allclose(coefficients, [row[:k] for row in expected], rtol=0, atol=1e-15)
        assert stub.values == []

    def test_a_drawn_beta_of_one_gives_a_clamped_velocity(self, queued_rng):
        # at rng.random's largest draw, 1 - 2**-53, beta1 + (beta2 - beta1) * u
        # rounds to beta2 = 1 whenever beta1 >= 0.5
        top = 1.0 - 2.0**-53
        scheme = ParameterScheme(2.0, 3.4672, 0.5, 1.0)
        coefficients = draw_coefficients(scheme, queued_rng([0.5, 0.5, top, top, top]), True, 1)[0]
        assert coefficients[4] == 1.0
        v, m = compute_speed_em(one(0.0), one(0.3), one(0.2), one(0.9), one(0.9), coefficients, UNIT)
        assert m[0] == 0.2  # beta = 1 carries the momentum unchanged
        assert np.isfinite(v[0]) and abs(v[0]) <= 0.5


class TestUpdatePosition:
    def test_interior_move(self):
        s = block([[0.5], [0.2]], v=[[0.2], [-0.1]])
        update_position(s, UNIT)
        np.testing.assert_allclose(s.positions, [[0.7], [0.1]])
        np.testing.assert_array_equal(s.velocities, [[0.2], [-0.1]])

    def test_reflection_at_wall(self):
        # only the row that crosses the wall is put on it and turned back
        s = block([[0.9], [0.5]], v=0.3)
        update_position(s, UNIT)
        assert s.positions[0, 0] == 1.0
        assert s.positions[1, 0] == pytest.approx(0.8)
        np.testing.assert_array_equal(s.velocities, [[-0.3], [0.3]])

    def test_lower_wall(self):
        s = block([[0.1], [0.9]], v=-0.5)
        update_position(s, UNIT)
        assert s.positions[0, 0] == 0.0
        assert s.positions[1, 0] == pytest.approx(0.4)
        np.testing.assert_array_equal(s.velocities, [[0.5], [-0.5]])

    def test_zero_velocity(self):
        s = block([[0.4], [0.0], [1.0]], v=0.0)
        update_position(s, UNIT)
        np.testing.assert_array_equal(s.positions, [[0.4], [0.0], [1.0]])

    def test_two_rows_hit_opposite_walls(self):
        bounds = BoxBounds(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        s = block(
            [[0.9, 0.0], [0.5, -0.8], [0.5, 0.5]],
            v=[[0.3, 0.1], [0.1, -0.5], [0.2, -0.2]],
        )
        update_position(s, bounds)
        np.testing.assert_allclose(s.positions, [[1.0, 0.1], [0.6, -1.0], [0.7, 0.3]])
        assert s.positions[0, 0] == 1.0 and s.positions[1, 1] == -1.0
        np.testing.assert_array_equal(s.velocities, [[-0.3, 0.1], [0.1, 0.5], [0.2, -0.2]])


class TestInitializeSwarm:
    def test_positions_in_bounds_state_zeroed(self):
        problem = get_problem("zdt4")
        cfg = DynamicsConfig(variant="fcpso", swarm_size=100)
        s = initialize_swarm(problem, cfg, np.random.default_rng(3))
        assert s.positions.shape == (100, problem.n_var)
        assert s.pbest_objectives.shape == (100, 2)
        assert np.all(s.positions >= problem.bounds.lower)
        assert np.all(s.positions <= problem.bounds.upper)
        assert np.all(s.velocities == 0.0)
        assert np.all(s.momenta == 0.0)
        np.testing.assert_array_equal(s.pbest_positions, s.positions)
        # nothing is evaluated yet: the first update_pbest replaces every row
        assert np.all(s.pbest_objectives == np.inf)

    def test_deterministic(self):
        problem = get_problem("zdt1")
        cfg = DynamicsConfig(variant="smpso", swarm_size=10)
        a = initialize_swarm(problem, cfg, np.random.default_rng(5))
        b = initialize_swarm(problem, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.positions, b.positions)

    @pytest.mark.parametrize("problem_id", ["zdt4", "wfg4"])
    def test_one_block_is_the_per_particle_stream(self, problem_id):
        problem = get_problem(problem_id)
        cfg = DynamicsConfig(swarm_size=7)
        batched, scalar = np.random.default_rng(11), np.random.default_rng(11)
        s = initialize_swarm(problem, cfg, batched)
        particles = initial_swarm(problem, cfg, scalar)
        assert s.positions.tobytes() == np.stack([p.position for p in particles]).tobytes()
        assert s.velocities.tobytes() == np.stack([p.velocity for p in particles]).tobytes()
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestUpdatePbest:
    def test_dominating_newcomer_replaces(self, rng):
        s = block([[0.5, 0.5], [0.3, 0.3]], pbest_objectives=[[2.0, 2.0], [3.0, 1.0]])
        s.positions = np.array([[0.1, 0.2], [0.4, 0.6]])
        update_pbest(s, np.array([[1.0, 1.0], [2.0, 0.5]]), rng)
        np.testing.assert_array_equal(s.pbest_objectives, [[1.0, 1.0], [2.0, 0.5]])
        np.testing.assert_array_equal(s.pbest_positions, [[0.1, 0.2], [0.4, 0.6]])

    def test_dominated_newcomer_kept_out(self, rng):
        s = block([[0.5, 0.5], [0.3, 0.3]], pbest_objectives=[[1.0, 1.0], [3.0, 1.0]])
        s.positions = np.array([[0.1, 0.2], [0.4, 0.6]])
        update_pbest(s, np.array([[2.0, 2.0], [3.0, 1.5]]), rng)
        np.testing.assert_array_equal(s.pbest_objectives, [[1.0, 1.0], [3.0, 1.0]])
        np.testing.assert_array_equal(s.pbest_positions, [[0.5, 0.5], [0.3, 0.3]])

    def test_tie_replaces_half_the_time(self):
        rows = 10_000
        s = block(np.full((rows, 2), 0.5), pbest_objectives=[3.0, 1.0])
        s.positions = np.full((rows, 2), 0.1)
        update_pbest(s, np.tile([1.0, 3.0], (rows, 1)), np.random.default_rng(8))
        replaced = (s.pbest_objectives == [1.0, 3.0]).all(axis=1)
        np.testing.assert_array_equal(replaced, (s.pbest_positions == 0.1).all(axis=1))
        assert abs(replaced.mean() - 0.5) <= 0.05

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
        s = block([0.5, 0.5], pbest_objectives=record)
        s.positions = np.array([[0.1, 0.2]])
        rng = queued_rng([0.25])  # a draw below 1/2 replaces
        update_pbest(s, np.array([newcomer]), rng)
        assert rng.values == ([] if draws else [0.25])
        np.testing.assert_array_equal(s.pbest_objectives, [newcomer if replaced else record])
        np.testing.assert_array_equal(s.pbest_positions, [[0.1, 0.2] if replaced else [0.5, 0.5]])

    def test_only_undecided_rows_draw_in_row_order(self, queued_rng):
        records = [[1.0, 1.0], [3.0, 1.0], [2.0, 2.0], [1.0, 1.0], [1.0, 3.0], [1.0, 2.0]]
        newcomers = [[2.0, 2.0], [1.0, 3.0], [1.0, 1.0], [1.0, 1.0], [3.0, 1.0], [1.0, 3.0]]
        s = block(np.full((6, 2), 0.5), pbest_objectives=records)
        s.positions = np.arange(12.0).reshape(6, 2)
        # rows 1, 3 and 4 are undecided; row 3 draws 0.75 and keeps its record
        rng = queued_rng([0.25, 0.75, 0.0, 0.5])
        update_pbest(s, np.array(newcomers), rng)
        assert rng.values == [0.5]
        replaced = [False, True, True, False, True, False]
        for i, r in enumerate(replaced):
            np.testing.assert_array_equal(s.pbest_objectives[i], newcomers[i] if r else records[i])
            np.testing.assert_array_equal(s.pbest_positions[i], s.positions[i] if r else [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda rows: st.tuples(
            st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=rows, max_size=rows),
            st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=rows, max_size=rows),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_block_pbest_is_the_per_particle_rule(case, seed):
    # small integer objectives make ties, equal vectors and one-sided
    # dominance common
    records, newcomers = (np.array(a, dtype=float) for a in case)
    rows = records.shape[0]
    s = block(np.zeros((rows, 2)), pbest_objectives=records)
    s.positions = np.arange(2.0 * rows).reshape(rows, 2)
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    update_pbest(s, newcomers, batched)
    for i in range(rows):
        p = Particle(s.positions[i], None, None, np.zeros(2), records[i])
        remember(p, newcomers[i], scalar)
        assert s.pbest_objectives[i].tobytes() == p.pbest_objectives.tobytes()
        assert s.pbest_positions[i].tobytes() == p.pbest_position.tobytes()
        if dominates(records[i], newcomers[i]):
            assert s.pbest_objectives[i].tobytes() == records[i].tobytes()
    assert batched.bit_generator.state == scalar.bit_generator.state


class TestIterationInvariants:
    def test_velocity_cap_and_bounds_hold_over_iterations(self, rng):
        problem = get_problem("zdt1")
        bounds = problem.bounds
        cfg = DynamicsConfig(variant="em-smpso", swarm_size=20)
        s = initialize_swarm(problem, cfg, rng)
        X, V, M, P = s.positions, s.velocities, s.momenta, s.pbest_positions
        for _ in range(40):
            gbest = P[int(rng.integers(cfg.swarm_size))].copy()
            coefficients = draw_coefficients(cfg.scheme, rng, True, cfg.swarm_size)
            for i in range(cfg.swarm_size):
                V[i], M[i] = compute_speed_em(X[i], V[i], M[i], P[i], gbest, coefficients[i], bounds)
            update_position(s, bounds)
            assert np.all(np.abs(V) <= bounds.delta + 1e-12)
            assert np.all(X >= bounds.lower - 1e-12)
            assert np.all(X <= bounds.upper + 1e-12)


def test_custom_scheme_drives_em_update(rng):
    # a custom scheme must keep every draw inside chi's domain and produce
    # finite state under repeated updates
    scheme = ParameterScheme(2.0, 3.0, 0.1, 0.4)
    cfg = DynamicsConfig(variant="em-smpso", scheme=scheme)
    x, v, m, pbest, gbest = one(0.0), one(0.0), one(0.0), one(1.0), one(1.0)
    for coefficients in draw_coefficients(cfg.scheme, rng, True, 500):
        v, m = compute_speed_em(x, v, m, pbest, gbest, coefficients, WIDE)
        assert np.isfinite(v).all() and np.isfinite(m).all()
