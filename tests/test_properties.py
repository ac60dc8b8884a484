"""Property tests for the archive, hypervolume, activation and
coefficient-draw invariants, for the activation threshold that the
constriction factor and the activation event share, for smpso's
velocity kernel against the momentum kernel, for IGD, additive epsilon
and spacing against the tensor forms in ``indicator_oracle``, and for
the array swarm's generation loop against the per-particle loop in
``loop_oracle``.

Objectives are mostly small integers, so duplicates and ties are common,
and every hypervolume is an exact sum of integer boxes; the 2-objective
crowding property draws floats, whose gaps round.
"""

import math
from dataclasses import replace

import indicator_oracle
import numpy as np
import pytest
from archive_oracle import ListArchive, crowding_loop, dominates
from hv_oracle import hv_oracle
from hv_oracle import non_dominated_mask as non_dominated_loop
from hypothesis import example, given, settings
from hypothesis import strategies as st
from loop_oracle import run_oracle
from zdt_oracle import ZDT

from fcpso.archive import ExternalArchive, crowding_distance, non_dominated_mask
from fcpso.constriction import PHI_MAX, activation_event, activation_threshold, chi_momentum, eigenvalues
from fcpso.fairness import ParameterScheme, activation_probability, monte_carlo_activation
from fcpso.indicators import HvTrace, _hv_4d, additive_epsilon, hypervolume, igd, spacing
from fcpso.mutation import MutationConfig
from fcpso.optimizer import RunConfig, run
from fcpso.problems import get_problem, parse_problem_id
from fcpso.swarm import (
    VARIANTS,
    BoxBounds,
    DynamicsConfig,
    compute_speed_em,
    compute_speed_smpso,
    draw_coefficients,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def objective_stream(draw, slots_per_objective=0):
    k = draw(st.integers(2, 5))
    low = max(1, slots_per_objective * k)
    capacity = draw(st.integers(low, low + 6))
    # points near the plane sum(f) = 10 (k - 1) are mostly mutually
    # non-dominated, so the archive overflows and evicts often
    head = st.lists(st.integers(0, 10), min_size=k - 1, max_size=k - 1)
    points = draw(st.lists(st.tuples(head, st.integers(0, 2)), max_size=40))
    return capacity, k, [np.array([*h, 10 * (k - 1) - sum(h) + noise], dtype=float) for h, noise in points]


def _mutually_non_dominated(F: np.ndarray) -> bool:
    return not any(
        i != j and (dominates(F[i], F[j]) or np.array_equal(F[i], F[j]))
        for i in range(len(F))
        for j in range(len(F))
    )


@PROPERTY_SETTINGS
@given(objective_stream())
def test_archive_stays_non_dominated_and_within_capacity(stream):
    capacity, k, points = stream
    archive = ExternalArchive(capacity, k, 1)
    for y in points:
        archive.try_insert(np.zeros(1), y)
        assert len(archive) <= capacity
        assert _mutually_non_dominated(archive.objectives_array())


@PROPERTY_SETTINGS
@given(objective_stream(slots_per_objective=2))
def test_archive_keeps_each_objective_minimum(stream):
    capacity, k, points = stream
    archive = ExternalArchive(capacity, k, 1)
    for y in points:
        before = [*archive.objectives_array(), y]
        archive.try_insert(np.zeros(1), y)
        np.testing.assert_array_equal(archive.objectives_array().min(axis=0), np.min(before, axis=0))


def _points(*rows):
    return [np.array(row, dtype=float) for row in rows]


@PROPERTY_SETTINGS
@given(objective_stream(), st.integers(0, 2**32 - 1))
# two objectives: a candidate beats an interior run of old rows, and a
# later candidate overflows the capacity and evicts an old row
@example((6, 2, _points((3, 7), (6, 4), (1, 9), (8, 2), (0, 10), (10, 0), (3, 4), (5, 3.5), (2, 8.5))), 0)
# two objectives: evictions of old rows next to the left end, then next to
# the right end (at capacity > 1 an end is never the least crowded)
@example((4, 2, _points((4, 6), (1, 8.5), (5, 5), (9, 1.5), (0, 10), (10, 0), (7, 2.5))), 0)
# capacity 1: two-objective evictions take the left end, then the right end
@example((1, 2, _points((0, 10), (10, 0), (0, 10))), 0)
@example((1, 3, _points((0, 5, 5), (5, 0, 5), (5, 5, 0))), 0)
def test_archive_matches_the_sequential_list_archive(stream, seed):
    capacity, k, points = stream
    archive, reference = ExternalArchive(capacity, k, 2), ListArchive(capacity)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for i, y in enumerate(points):
        x = np.array([float(i), -float(i)])  # names the candidate
        assert archive.try_insert(x, y) == reference.try_insert(x, y)
        np.testing.assert_array_equal(archive.positions_array(), [p for p, _ in reference.entries])
        np.testing.assert_array_equal(archive.objectives_array(), [f for _, f in reference.entries])
        # a draw after every step sees crowding gone stale mid-stream
        np.testing.assert_array_equal(archive.select_leaders(a, 3), reference.select_leaders(b, 3))
    if points:
        np.testing.assert_array_equal(archive.select_leaders(a, 40), reference.select_leaders(b, 40))



@st.composite
def two_objective_stream(draw):
    capacity = draw(st.integers(1, 8))
    # f2 near 1 - f1, so most points are mutually non-dominated
    points = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.1)), max_size=60))
    return capacity, [np.array([f1, 1.0 - f1 + noise]) for f1, noise in points]


@PROPERTY_SETTINGS
@given(two_objective_stream())
def test_two_objective_crowding_stays_bitwise_the_full_recompute(stream):
    # the staircase updates only the neighbours of each change
    capacity, points = stream
    archive = ExternalArchive(capacity, 2, 1)
    for y in points:
        archive.try_insert(np.zeros(1), y)
        expected = crowding_distance(archive.objectives_array())
        assert archive._crowding[: len(archive)].tobytes() == expected.tobytes()

@st.composite
def integer_points(draw, k_min=2, k_max=3, min_size=1, max_size=12):
    k = draw(st.integers(k_min, k_max))
    coords = st.lists(st.integers(0, 10), min_size=k, max_size=k)
    return np.array(draw(st.lists(coords, min_size=min_size, max_size=max_size)), dtype=float)


@PROPERTY_SETTINGS
@given(integer_points(k_max=5, max_size=30))
def test_crowding_is_bitwise_the_per_objective_loop(F):
    np.testing.assert_array_equal(crowding_distance(F), crowding_loop(F))


@PROPERTY_SETTINGS
@given(integer_points(k_max=5, max_size=30))
def test_non_dominated_mask_matches_the_point_by_point_filter(F):
    np.testing.assert_array_equal(non_dominated_mask(F), non_dominated_loop(F))


@st.composite
def front_and_point(draw):
    front = draw(integer_points())
    k = front.shape[1]
    point = np.array(draw(st.lists(st.integers(0, 10), min_size=k, max_size=k)), dtype=float)
    return front, point, np.full(k, 10.0)


@PROPERTY_SETTINGS
@given(front_and_point(), st.data())
def test_hypervolume_ignores_dominated_points(case, data):
    front, _, ref = case
    base = front[data.draw(st.integers(0, len(front) - 1))]
    offset = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(ref), max_size=len(ref))))
    grown = np.vstack([front, base + offset])
    assert hypervolume(grown, ref) == hypervolume(front, ref)


@PROPERTY_SETTINGS
@given(front_and_point())
def test_hypervolume_never_drops_when_a_point_is_added(case):
    front, point, ref = case
    assert hypervolume(np.vstack([front, point]), ref) >= hypervolume(front, ref)


@PROPERTY_SETTINGS
@given(integer_points(k_min=2, k_max=5, max_size=25))
def test_hypervolume_matches_the_slicing_oracle(front):
    # coordinates reach 10, the reference, so some points sit on its
    # boundary; below four objectives dominated points and duplicates go
    # into the sweeps unfiltered
    ref = np.full(front.shape[1], 10.0)
    expected = hv_oracle(front, ref)
    assert abs(hypervolume(front, ref) - expected) <= 1e-12 * expected


@PROPERTY_SETTINGS
@given(integer_points(k_min=4, k_max=4, max_size=25))
def test_the_4d_base_case_takes_any_point_set(front):
    # dominated points, duplicates and points on the reference's faces
    # go in unfiltered
    ref = np.full(4, 10.0)
    expected = hv_oracle(front, ref)
    assert abs(_hv_4d(front[None], ref)[0] - expected) <= 1e-12 * expected


def front_pair(k, n_front, n_ref, seed, grid):
    """A front and a reference front of k objectives sharing some rows.
    On a grid of 4 values per objective, ties and duplicates are common;
    off it, per-objective scales 1e-3 to 1e3 make every sum round."""
    rng = np.random.default_rng(seed)
    if grid:
        F = rng.integers(0, 4, (n_front, k)).astype(float)
        R = rng.integers(0, 4, (n_ref, k)).astype(float)
    else:
        scale = 10.0 ** rng.integers(-3, 4, k)
        F = rng.random((n_front, k)) * scale
        R = rng.random((n_ref, k)) * scale
    shared = rng.integers(0, min(n_front, n_ref) + 1)
    R[:shared] = F[:shared]
    return F, R


@st.composite
def front_pairs(draw):
    # |R| * |F| and |F| ** 2 fall on both sides of the 2**16-cell tables
    return front_pair(
        draw(st.integers(1, 10)),
        draw(st.integers(1, 300)),
        draw(st.integers(1, 700)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
    )


@PROPERTY_SETTINGS
@given(front_pairs())
@example(front_pair(3, 256, 256, 0, False))  # 256 rows: one table exactly
@example(front_pair(5, 257, 257, 1, True))  # 257 rows: a second table
@example(front_pair(8, 20, 30, 1, False))  # summed in objective order, sp moves
@example(front_pair(9, 20, 30, 2, False))  # and igd does
def test_igd_epsilon_and_spacing_are_bitwise_the_tensor_forms(pair):
    # the per-objective sums follow numpy's pairwise order, so they are
    # bitwise at 8 and more objectives too
    F, R = pair
    assert igd(F, R).hex() == indicator_oracle.igd(F, R).hex()
    assert additive_epsilon(F, R).hex() == indicator_oracle.additive_epsilon(F, R).hex()
    if len(F) > 1:
        assert spacing(F).hex() == indicator_oracle.spacing(F).hex()


@st.composite
def uniform_schemes(draw):
    phi1 = draw(st.floats(0.1, 5.0))
    phi2 = phi1 + draw(st.floats(0.01, 4.0))
    beta1 = draw(st.floats(0.0, 0.9))
    beta2 = min(1.0, beta1 + draw(st.floats(0.05, 1.0 - beta1)))
    return ParameterScheme(phi1, phi2, beta1, beta2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(uniform_schemes())
def test_activation_probability_matches_monte_carlo(scheme):
    samples = 200_000
    exact = activation_probability(scheme)
    sampled = monte_carlo_activation(scheme, samples).p_activation
    if exact in (0.0, 1.0):
        assert sampled == exact
    else:
        assert abs(sampled - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / samples)


@PROPERTY_SETTINGS
@given(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(4.0, 0.0)
@example(activation_threshold(0.25), 0.25)
@example(activation_threshold(0.5), 0.5)
@example(math.nextafter(PHI_MAX, math.inf), 0.5)
@example(math.nextafter(activation_threshold(1.0), math.inf), 1.0)
def test_the_solver_and_the_calculus_share_one_activation_threshold(phi, beta):
    active = phi > activation_threshold(beta)
    assert activation_event(phi, beta) == active
    if phi > PHI_MAX:  # chi squares phi
        with pytest.raises(ValueError, match="phi must be at most"):
            chi_momentum(phi, beta)
    else:
        assert (chi_momentum(phi, beta) != 1.0) == active


@PROPERTY_SETTINGS
@given(
    # past PHI_MAX, phi * phi overflows, and both sides refuse phi
    st.floats(min_value=0.0, max_value=PHI_MAX, exclude_min=True),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(4.0, 0.0)
@example(math.nextafter(4.0, math.inf), 0.0)
@example(activation_threshold(0.25), 0.25)
@example(math.nextafter(activation_threshold(0.25), math.inf), 0.25)
@example(activation_threshold(0.3), 0.3)
@example(math.nextafter(activation_threshold(0.3), math.inf), 0.3)
@example(PHI_MAX, 0.5)
@example(math.nextafter(activation_threshold(1.0), math.inf), 1.0)
@example(PHI_MAX, 1.0)
def test_the_solver_applies_the_reciprocal_of_the_calculus_lambda_minus(phi, beta):
    chi = chi_momentum(phi, beta)
    if not activation_event(phi, beta):
        assert chi == 1.0
        return
    lam = eigenvalues(phi, beta).lambda_minus
    assert lam.imag == 0.0
    assert chi == 1.0 / lam.real


@PROPERTY_SETTINGS
@given(uniform_schemes(), st.integers(0, 2**64 - 1), st.booleans(), st.integers(1, 5))
def test_one_draw_call_is_the_scalar_uniform_stream(scheme, seed, momentum, particles):
    # row by row, one uniform(lo, hi) per coefficient, in (r1, r2, c1,
    # c2[, beta]) order
    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = []
    for _ in range(particles):
        c = (scheme.phi1 / 2.0, scheme.phi2 / 2.0)
        row = [scalar.uniform(0.0, 1.0), scalar.uniform(0.0, 1.0)]
        row += [scalar.uniform(*c), scalar.uniform(*c)]
        if momentum:
            row.append(scalar.uniform(scheme.beta1, scheme.beta2))
        expected.append(row)
    drawn = draw_coefficients(scheme, batched, momentum, particles)
    assert drawn.tobytes() == np.array(expected).tobytes()
    assert batched.bit_generator.state == scalar.bit_generator.state


@st.composite
def velocity_cases(draw):
    """One particle's finite rows, a box, a coefficient row inside a
    scheme's box and any finite inertia."""
    n = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    x, v, pbest, gbest = (np.array(draw(st.lists(finite, min_size=n, max_size=n))) for _ in range(4))
    half = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    scheme = draw(uniform_schemes())
    unit, c = st.floats(0.0, 1.0), st.floats(scheme.phi1 / 2.0, scheme.phi2 / 2.0)
    coefficients = (draw(unit), draw(unit), draw(c), draw(c))
    return x, v, pbest, gbest, coefficients, draw(finite), BoxBounds(-half, half)


@PROPERTY_SETTINGS
@given(velocity_cases())
def test_smpso_is_the_momentum_kernel_carrying_w_v_at_beta_zero(case):
    x, v, pbest, gbest, coefficients, w, bounds = case
    # huge rows overflow to inf or nan, alike on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        smpso = compute_speed_smpso(x, v, pbest, gbest, coefficients, w, bounds)
        em, _ = compute_speed_em(x, w * v, np.zeros_like(v), pbest, gbest, (*coefficients, 0.0), bounds)
    np.testing.assert_array_equal(smpso, em)


@st.composite
def run_cases(draw):
    """A small run: any problem family, variant, swarm size, turbulence
    setting, budget, archive size and hv target, or none."""
    problem = get_problem(*parse_problem_id(draw(st.sampled_from(["zdt1", "zdt4", "dtlz2:3", "wfg4:5"]))))
    swarm = draw(st.integers(2, 40))
    dynamics = DynamicsConfig(variant=draw(st.sampled_from(VARIANTS)), swarm_size=swarm)
    mutation = MutationConfig(
        distribution_index=draw(st.sampled_from([5.0, 20.0])),
        per_variable_probability=draw(st.sampled_from([None, 0.0, 0.5, 1.0])),
        particle_fraction=draw(st.sampled_from([0.0, 0.15, 1.0])),
    )
    target = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    if (target is not None and problem.reference_hv is None) or draw(st.booleans()):
        problem = replace(problem, reference_hv=draw(st.floats(0.5, 8.0)))
    cfg = RunConfig(
        dynamics=dynamics,
        mutation=mutation,
        max_evaluations=swarm * draw(st.integers(1, 8)) + draw(st.integers(0, swarm - 1)),
        archive_capacity=draw(st.integers(1, 30)),
    )
    return problem, cfg, target


@settings(max_examples=150, deadline=None)
@given(run_cases(), st.integers(0, 2**32 - 1))
def test_array_swarm_run_is_bitwise_the_per_particle_loop(case, seed):
    problem, cfg, target = case
    trace, oracle_trace = HvTrace(problem, target), HvTrace(problem, target)
    got, expected = run(problem, cfg, seed, observe=trace), run_oracle(problem, cfg, seed, observe=oracle_trace)
    assert got.front_objectives.shape == expected.front_objectives.shape
    assert got.front_objectives.tobytes() == expected.front_objectives.tobytes()
    assert got.front_positions.tobytes() == expected.front_positions.tobytes()
    assert trace.points == oracle_trace.points
    assert got.evaluations_used == expected.evaluations_used


@st.composite
def zdt_points(draw):
    """A ZDT problem and a point of its box whose components lie on a wall,
    are subnormal (of either sign where the box spans 0) or anywhere inside."""
    problem = get_problem(draw(st.sampled_from(sorted(ZDT))))
    x = []
    for lo, hi in zip(problem.bounds.lower.tolist(), problem.bounds.upper.tolist()):
        kind = draw(st.sampled_from(["lower", "upper", "subnormal", "inside"]))
        if kind == "lower":
            x.append(lo)
        elif kind == "upper":
            x.append(hi)
        elif kind == "subnormal":
            tiny = draw(st.floats(min_value=5e-324, max_value=np.finfo(float).smallest_normal, exclude_max=True))
            x.append(-tiny if lo < 0.0 and draw(st.booleans()) else tiny)
        else:
            x.append(draw(st.floats(min_value=lo, max_value=hi)))
    return problem, np.array(x)


@PROPERTY_SETTINGS
@given(zdt_points())
def test_zdt_evaluation_is_bitwise_the_textbook_expression(case):
    problem, x = case
    assert problem.evaluate(x).tobytes() == ZDT[problem.name](x).tobytes()
