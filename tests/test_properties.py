"""Property tests for the archive, hypervolume, activation and
coefficient-draw invariants, and for the array swarm's generation loop
against the per-particle loop in ``loop_oracle``.

Objectives are mostly small integers, so duplicates and ties are common,
and every hypervolume is an exact sum of integer boxes; the 2-objective
crowding property draws floats, whose gaps round.
"""

import math
from dataclasses import replace

import numpy as np
from archive_oracle import ListArchive, crowding_loop, dominates
from hv_oracle import hv_oracle
from hv_oracle import non_dominated_mask as non_dominated_loop
from hypothesis import example, given, settings
from hypothesis import strategies as st
from loop_oracle import run_oracle
from zdt_oracle import ZDT

from fcpso.archive import ExternalArchive, crowding_distance, non_dominated_mask
from fcpso.fairness import ParameterScheme, activation_probability, monte_carlo_activation
from fcpso.indicators import _hv_4d, hypervolume
from fcpso.mutation import MutationConfig
from fcpso.optimizer import RunConfig, run
from fcpso.problems import get_problem, parse_problem_id
from fcpso.swarm import VARIANTS, DynamicsConfig, draw_coefficients

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
    return capacity, [np.array([*h, 10 * (k - 1) - sum(h) + noise], dtype=float) for h, noise in points]


def _mutually_non_dominated(F: np.ndarray) -> bool:
    return not any(
        i != j and (dominates(F[i], F[j]) or np.array_equal(F[i], F[j]))
        for i in range(len(F))
        for j in range(len(F))
    )


@PROPERTY_SETTINGS
@given(objective_stream())
def test_archive_stays_non_dominated_and_within_capacity(stream):
    capacity, points = stream
    archive = ExternalArchive(capacity)
    for y in points:
        archive.try_insert(np.zeros(1), y)
        assert len(archive) <= capacity
        assert _mutually_non_dominated(archive.objectives_array())


@PROPERTY_SETTINGS
@given(objective_stream(slots_per_objective=2))
def test_archive_keeps_each_objective_minimum(stream):
    capacity, points = stream
    archive = ExternalArchive(capacity)
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
@example((6, _points((3, 7), (6, 4), (1, 9), (8, 2), (0, 10), (10, 0), (3, 4), (5, 3.5), (2, 8.5))), 0)
# two objectives: evictions of old rows next to the left end, then next to
# the right end (at capacity > 1 an end is never the least crowded)
@example((4, _points((4, 6), (1, 8.5), (5, 5), (9, 1.5), (0, 10), (10, 0), (7, 2.5))), 0)
# capacity 1: two-objective evictions take the left end, then the right end
@example((1, _points((0, 10), (10, 0), (0, 10))), 0)
@example((1, _points((0, 5, 5), (5, 0, 5), (5, 5, 0))), 0)
def test_archive_matches_the_sequential_list_archive(stream, seed):
    capacity, points = stream
    archive, reference = ExternalArchive(capacity), ListArchive(capacity)
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
    archive = ExternalArchive(capacity)
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
@given(integer_points(k_min=3, k_max=5, max_size=25))
def test_hypervolume_matches_the_slicing_oracle(front):
    # coordinates reach 10, the reference, so some points sit on its boundary
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
def run_cases(draw):
    """A small run: any problem family, variant, start, swarm size,
    turbulence setting, budget, archive size and termination mode."""
    problem = get_problem(*parse_problem_id(draw(st.sampled_from(["zdt1", "zdt4", "dtlz2:3", "wfg4:5"]))))
    swarm = draw(st.integers(2, 40))
    dynamics = DynamicsConfig(
        variant=draw(st.sampled_from(VARIANTS)),
        swarm_size=swarm,
        velocity_init=draw(st.sampled_from(["zero", "uniform"])),
    )
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
        hv_target_fraction=target,
        record_interval=draw(st.integers(0, 3)),
    )
    return problem, cfg


@settings(max_examples=150, deadline=None)
@given(run_cases(), st.integers(0, 2**32 - 1))
def test_array_swarm_run_is_bitwise_the_per_particle_loop(case, seed):
    problem, cfg = case
    got, expected = run(problem, cfg, seed), run_oracle(problem, cfg, seed)
    assert got.front_objectives.shape == expected.front_objectives.shape
    assert got.front_objectives.tobytes() == expected.front_objectives.tobytes()
    assert got.front_positions.tobytes() == expected.front_positions.tobytes()
    assert got.hv_trace == expected.hv_trace
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
