import re

import numpy as np
import pytest

from fcpso.archive import (
    DOMINATED,
    INSERTED,
    REPLACED_CROWDED,
    ExternalArchive,
    crowding_distance,
    non_dominated_mask,
)


def entry(*objs):
    """(position, objectives) of a candidate whose position is its objectives."""
    y = np.array(objs, dtype=float)
    return y.copy(), y


# (position, objectives, message) of candidates that are not one vector each
NOT_ONE_VECTOR = [
    pytest.param(np.zeros(1), 1.0, r"objectives \(\) and position \(1,\); each must", id="scalar-objectives"),
    pytest.param(np.zeros(2), np.ones((2, 2)), r"objectives \(2, 2\) and position \(2,\); each must", id="2x2-objectives"),
    pytest.param(np.zeros((1, 2)), np.ones(2), r"objectives \(2,\) and position \(1, 2\); each must", id="1x2-position"),
]


class TestNonDominatedMask:
    def test_simple(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(non_dominated_mask(F), [True, False, True])

    def test_duplicates_keep_first(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(non_dominated_mask(F), [True, False])

    def test_two_objectives_match_the_pairwise_definition(self, rng):
        # a point goes when another beats it or it duplicates an earlier one
        for _ in range(50):
            F = rng.random((40, 2))
            fast = non_dominated_mask(F)
            slow = np.array(
                [
                    not any(
                        (np.all(F[j] <= F[i]) and np.any(F[j] < F[i])) or
                        (j < i and np.all(F[j] == F[i]))
                        for j in range(len(F)) if j != i
                    )
                    for i in range(len(F))
                ]
            )
            np.testing.assert_array_equal(fast, slow)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_is_refused(self, k, bad):
        F = np.eye(4, k)
        F[2, -1] = bad
        with pytest.raises(ValueError, match="objectives must be finite"):
            non_dominated_mask(F)


class TestCrowdingDistance:
    def test_hand_example(self):
        d = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
        assert d[0] == np.inf and d[2] == np.inf
        assert d[1] == pytest.approx(2.0)

    def test_single_entry(self):
        assert crowding_distance(np.array([[1.0, 2.0]]))[0] == np.inf

    def test_empty_set_refused(self):
        with pytest.raises(ValueError, match="at least one entry"):
            crowding_distance(np.empty((0, 2)))

    def test_two_entries(self):
        d = crowding_distance(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.all(np.isinf(d))

    def test_boundary_infinite_with_distinct_values(self, rng):
        for _ in range(20):
            F = rng.random((10, 3))
            d = crowding_distance(F)
            for j in range(3):
                assert d[np.argmin(F[:, j])] == np.inf
                assert d[np.argmax(F[:, j])] == np.inf

    def test_degenerate_objective_contributes_zero(self):
        F = np.array([[0.0, 5.0], [0.5, 5.0], [1.0, 5.0]])
        d = crowding_distance(F)
        # second objective is constant; only the first spreads them
        assert d[0] == np.inf and d[2] == np.inf
        assert d[1] == pytest.approx(1.0)


class TestTryInsert:
    def test_insert_non_dominated(self):
        a = ExternalArchive(capacity=10)
        assert a.try_insert(*entry(1.0, 0.0)) == INSERTED
        assert a.try_insert(*entry(0.0, 1.0)) == INSERTED
        assert a.try_insert(*entry(0.5, 0.5)) == INSERTED
        assert len(a) == 3

    def test_reject_dominated(self):
        a = ExternalArchive(capacity=10)
        a.try_insert(*entry(1.0, 1.0))
        assert a.try_insert(*entry(2.0, 2.0)) == DOMINATED
        assert len(a) == 1

    def test_reject_duplicate(self):
        a = ExternalArchive(capacity=10)
        a.try_insert(*entry(1.0, 1.0))
        assert a.try_insert(*entry(1.0, 1.0)) == DOMINATED
        assert len(a) == 1

    def test_candidate_sweeps_out_dominated_entries(self):
        a = ExternalArchive(capacity=10)
        a.try_insert(*entry(1.0, 3.0))
        a.try_insert(*entry(3.0, 1.0))
        assert a.try_insert(*entry(0.5, 0.5)) == INSERTED
        assert len(a) == 1

    def test_crowding_eviction_keeps_extremes(self):
        a = ExternalArchive(capacity=2)
        a.try_insert(*entry(0.0, 1.0))
        a.try_insert(*entry(1.0, 0.0))
        assert a.try_insert(*entry(0.5, 0.5)) == REPLACED_CROWDED
        assert len(a) == 2
        objs = {tuple(y) for y in a.objectives_array()}
        assert objs == {(0.0, 1.0), (1.0, 0.0)}

    @pytest.mark.parametrize(
        "position,objectives,match",
        [pytest.param(*entry(0.0, 1.0, 2.0), "the archive holds", id="wider"), *NOT_ONE_VECTOR],
    )
    def test_dimension_mismatch(self, position, objectives, match):
        a = ExternalArchive(capacity=4)
        a.try_insert(*entry(0.0, 1.0))
        with pytest.raises(ValueError, match=match):
            a.try_insert(position, objectives)
        assert a.objectives_array().tolist() == [[0.0, 1.0]]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExternalArchive(capacity=0)

    @pytest.mark.parametrize("capacity", [True, 2.5, 10.0])
    def test_a_non_integer_capacity_is_refused(self, capacity):
        with pytest.raises(ValueError, match=f"capacity must be an integer, got {capacity!r}"):
            ExternalArchive(capacity)
        assert ExternalArchive(np.int64(10)).capacity == 10

    @pytest.mark.parametrize("k", [2, 3])
    def test_each_candidate_gets_its_insert_outcome(self, k):
        a = ExternalArchive(capacity=2)
        pad = (0.0,) * (k - 2)
        steps = [
            ((1.0, 1.0), INSERTED),
            ((2.0, 2.0), DOMINATED),
            ((1.0, 1.0), DOMINATED),  # a duplicate
            ((0.0, 2.0), INSERTED),
            ((0.5, 0.5), INSERTED),  # drops (1, 1)
            ((2.0, 0.0), REPLACED_CROWDED),
            ((3.0, 3.0), DOMINATED),
        ]
        for objs, outcome in steps:
            assert a.try_insert(*entry(*objs, *pad)) == outcome


class TestNonFiniteObjectives:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "held,rest",
        [
            ([], [0.1]),
            ([], [0.1, 0.1]),
            # the candidate beats both corners in its last objective, so
            # at k = 3 neither entry dominates it
            ([(0.0, 1.0), (1.0, 0.0)], [0.1]),
            ([(0.0, 1.0, 0.5), (1.0, 0.0, 0.5)], [0.1, 0.1]),
            # the origin dominates (inf, 1, 1), which is refused all the same,
            # as are (-inf, 1, 1) and (nan, 1, 1), which it does not
            ([(0.0, 0.0, 0.0)], [1.0, 1.0]),
        ],
        ids=["k2-empty", "k3-empty", "k2-corners", "k3-corners", "k3-dominated"],
    )
    def test_rejected_naming_the_values(self, held, rest, bad):
        a = ExternalArchive(capacity=2)
        for y in held:
            a.try_insert(*entry(*y))
        before = a.objectives_array().tolist()
        candidate = [bad, *rest]
        with pytest.raises(ValueError, match=re.escape(str(candidate))):
            a.try_insert(*entry(*candidate))
        assert a.objectives_array().tolist() == before

    @pytest.mark.parametrize(
        "position,objectives,match",
        [pytest.param(*entry(np.nan, 1.0), "finite", id="nan"), *NOT_ONE_VECTOR],
    )
    def test_a_refused_first_candidate_leaves_the_width_open(self, position, objectives, match):
        a = ExternalArchive(capacity=2)
        with pytest.raises(ValueError, match=match):
            a.try_insert(position, objectives)
        assert a.objectives_array().shape == (0, 0)
        assert a.try_insert(*entry(1.0, 2.0, 3.0)) == INSERTED
        assert a.objectives_array().tolist() == [[1.0, 2.0, 3.0]]


class TestArchiveInvariants:
    def test_a_new_archive_has_no_rows(self):
        a = ExternalArchive(capacity=3)
        assert len(a) == 0
        assert a.objectives_array().shape == a.positions_array().shape == (0, 0)

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_fuzz_mutual_non_dominance_and_capacity(self, k, rng):
        a = ExternalArchive(capacity=30)
        for i in range(2500):
            y = rng.random(k)
            a.try_insert(y, y)
            if i % 500 == 0:
                assert len(a) <= 30
                F = a.objectives_array()
                assert non_dominated_mask(F).all()
        assert len(a) <= 30
        assert non_dominated_mask(a.objectives_array()).all()

    def test_matches_brute_force_filter_when_uncapped(self, rng):
        offered = rng.random((200, 3))
        a = ExternalArchive(capacity=10_000)
        for y in offered:
            a.try_insert(y, y)
        got = {tuple(y) for y in a.objectives_array()}
        expected = {tuple(row) for row in offered[non_dominated_mask(offered)]}
        assert got == expected


class TestSelectLeader:
    def test_single_entry(self, rng):
        a = ExternalArchive(capacity=4)
        a.try_insert(*entry(0.3, 0.7))
        np.testing.assert_array_equal(a.select_leaders(rng, 3), [[0.3, 0.7]] * 3)

    def test_higher_crowding_wins(self, queued_rng):
        a = ExternalArchive(capacity=8)
        a.try_insert(*entry(0.0, 1.0))
        a.try_insert(*entry(0.45, 0.55))
        a.try_insert(*entry(0.5, 0.5))
        a.try_insert(*entry(1.0, 0.0))
        X = a.positions_array()
        # boundary (inf) against interior, twice; then the two boundaries
        # tie, and a draw below 1/2 takes the first of the pair
        pairs = [0, 2, 1, 3, 0, 3, 3, 0]
        stub = queued_rng(pairs + [0.9, 0.0, 0.25, 0.75])
        leaders = a.select_leaders(stub, 4)
        np.testing.assert_array_equal(leaders, X[[0, 3, 0, 0]])
        assert stub.values == []

    def test_leaders_are_a_copy(self, rng):
        a = ExternalArchive(capacity=4)
        a.try_insert(*entry(0.3, 0.7))
        leaders = a.select_leaders(rng, 2)
        a.try_insert(*entry(0.1, 0.1))
        np.testing.assert_array_equal(leaders, [[0.3, 0.7]] * 2)

    def test_draws_two_blocks(self):
        a = ExternalArchive(capacity=8)
        for x in np.linspace(0.0, 1.0, 5):
            a.try_insert(*entry(float(x), float(1.0 - x)))
        got, expected = np.random.default_rng(7), np.random.default_rng(7)
        a.select_leaders(got, 6)
        expected.integers(0, 5, size=(6, 2))
        expected.random(6)
        assert got.bit_generator.state == expected.bit_generator.state

    def test_three_objective_leaders_are_those_of_a_fresh_archive_of_the_same_entries(self, rng):
        def fresh_leaders(archive):
            fresh = ExternalArchive(capacity=8)
            for y in archive.objectives_array():
                fresh.try_insert(*entry(*y))
            return fresh.select_leaders(np.random.default_rng(3), 6).tobytes()

        a = ExternalArchive(capacity=8)
        for x in np.linspace(0.0, 1.0, 5):
            a.try_insert(*entry(float(x), float(1.0 - x), 0.5))
        first = a.select_leaders(np.random.default_rng(3), 6)
        assert a.select_leaders(np.random.default_rng(3), 6).tobytes() == first.tobytes()
        assert a.try_insert(*entry(2.0, 2.0, 2.0)) == DOMINATED
        a.select_leaders(rng, 6)
        assert fresh_leaders(a) == first.tobytes()
        a.try_insert(*entry(0.25, 0.25, 0.25))  # drops the three interior entries
        a.select_leaders(rng, 6)
        assert len(a) == 3
        assert a.select_leaders(np.random.default_rng(3), 6).tobytes() == fresh_leaders(a)

    def test_empty_archive_rejected(self, rng):
        with pytest.raises(ValueError):
            ExternalArchive(capacity=2).select_leaders(rng, 1)

    def test_boundary_bias(self, rng):
        a = ExternalArchive(capacity=20)
        for x in np.linspace(0.0, 1.0, 10):
            a.try_insert(*entry(float(x), float(1.0 - x)))
        # positions are distinct, so a leader's position names its entry
        ids = {tuple(x): i for i, x in enumerate(a.positions_array())}
        counts = {i: 0 for i in range(len(a))}
        for x in a.select_leaders(rng, 10_000):
            counts[ids[tuple(x)]] += 1
        boundary = counts[0] + counts[len(a) - 1]
        interior = sum(counts.values()) - boundary
        assert boundary / 2 > interior / (len(a) - 2)
