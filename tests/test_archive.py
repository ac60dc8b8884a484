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


# (position, objectives, message) of candidates that are not one vector
# each, offered to an archive of two objectives and two variables
HOLDS = r"; the archive holds \(2,\) and \(2,\)"
NOT_ONE_VECTOR = [
    pytest.param(np.zeros(1), 1.0, r"objectives \(\) and position \(1,\)" + HOLDS, id="scalar-objectives"),
    pytest.param(np.zeros(2), np.ones((2, 2)), r"objectives \(2, 2\) and position \(2,\)" + HOLDS, id="2x2-objectives"),
    pytest.param(np.zeros((1, 2)), np.ones(2), r"objectives \(2,\) and position \(1, 2\)" + HOLDS, id="1x2-position"),
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

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_entry_is_refused(self, k, bad):
        # non_dominated_mask's refusal, where a NaN would crowd as NaN
        F = np.eye(4, k)
        F[2, -1] = bad
        with pytest.raises(ValueError, match="^objectives must be finite, got a NaN or infinite entry$"):
            crowding_distance(F)


class TestTryInsert:
    def test_insert_non_dominated(self):
        a = ExternalArchive(10, 2, 2)
        assert a.try_insert(*entry(1.0, 0.0)) == INSERTED
        assert a.try_insert(*entry(0.0, 1.0)) == INSERTED
        assert a.try_insert(*entry(0.5, 0.5)) == INSERTED
        assert len(a) == 3

    def test_reject_dominated(self):
        a = ExternalArchive(10, 2, 2)
        a.try_insert(*entry(1.0, 1.0))
        assert a.try_insert(*entry(2.0, 2.0)) == DOMINATED
        assert len(a) == 1

    def test_reject_duplicate(self):
        a = ExternalArchive(10, 2, 2)
        a.try_insert(*entry(1.0, 1.0))
        assert a.try_insert(*entry(1.0, 1.0)) == DOMINATED
        assert len(a) == 1

    def test_candidate_sweeps_out_dominated_entries(self):
        a = ExternalArchive(10, 2, 2)
        a.try_insert(*entry(1.0, 3.0))
        a.try_insert(*entry(3.0, 1.0))
        assert a.try_insert(*entry(0.5, 0.5)) == INSERTED
        assert len(a) == 1

    def test_crowding_eviction_keeps_extremes(self):
        a = ExternalArchive(2, 2, 2)
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
        a = ExternalArchive(4, 2, 2)
        a.try_insert(*entry(0.0, 1.0))
        with pytest.raises(ValueError, match=match):
            a.try_insert(position, objectives)
        assert a.objectives_array().tolist() == [[0.0, 1.0]]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExternalArchive(0, 2, 2)

    @pytest.mark.parametrize("capacity", [True, 2.5, 10.0])
    def test_a_non_integer_capacity_is_refused(self, capacity):
        with pytest.raises(ValueError, match=f"capacity must be an integer, got {capacity!r}"):
            ExternalArchive(capacity, 2, 2)
        assert ExternalArchive(np.int64(10), 2, 2).capacity == 10

    @pytest.mark.parametrize("name", ["n_obj", "n_var"])
    @pytest.mark.parametrize(
        "value,message",
        [(0, "must be >= 1, got 0"), (2.0, "must be an integer, got 2.0"), (True, "must be an integer, got True")],
        ids=["zero", "float", "bool"],
    )
    def test_a_bad_count_is_refused_naming_it(self, name, value, message):
        counts = {"n_obj": 2, "n_var": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            ExternalArchive(4, **counts)
        archive = ExternalArchive(4, n_obj=np.int64(2), n_var=np.int64(3))
        assert archive.objectives_array().shape == (0, 2)
        assert archive.positions_array().shape == (0, 3)

    @pytest.mark.parametrize("k", [2, 3])
    def test_each_candidate_gets_its_insert_outcome(self, k):
        a = ExternalArchive(2, k, k)
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
        k = 1 + len(rest)
        a = ExternalArchive(2, k, k)
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
    def test_a_refused_first_candidate_leaves_the_archive_empty(self, position, objectives, match):
        a = ExternalArchive(2, 2, 2)
        with pytest.raises(ValueError, match=match):
            a.try_insert(position, objectives)
        assert a.objectives_array().shape == a.positions_array().shape == (0, 2)
        assert a.try_insert(*entry(1.0, 2.0)) == INSERTED
        assert a.objectives_array().tolist() == [[1.0, 2.0]]


class TestArchiveInvariants:
    def test_a_new_archive_has_no_rows(self):
        a = ExternalArchive(3, 2, 5)
        assert len(a) == 0
        assert a.objectives_array().shape == (0, 2)
        assert a.positions_array().shape == (0, 5)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_objectives_are_a_row_per_entry_copy(self, k):
        # the archive keeps one row per objective; callers get one per entry
        rows = [[float(i), -float(i), *range(k - 2)] for i in range(3)]
        a = ExternalArchive(4, k, 1)
        for y in rows:
            a.try_insert(np.zeros(1), np.array(y))
        F = a.objectives_array()
        assert F.flags.c_contiguous and F.flags.owndata
        np.testing.assert_array_equal(F, rows)
        F[:] = 99.0
        np.testing.assert_array_equal(a.objectives_array(), rows)

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_fuzz_mutual_non_dominance_and_capacity(self, k, rng):
        a = ExternalArchive(30, k, k)
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
        a = ExternalArchive(10_000, 3, 3)
        for y in offered:
            a.try_insert(y, y)
        got = {tuple(y) for y in a.objectives_array()}
        expected = {tuple(row) for row in offered[non_dominated_mask(offered)]}
        assert got == expected


class TestSelectLeader:
    def test_single_entry(self, rng):
        a = ExternalArchive(4, 2, 2)
        a.try_insert(*entry(0.3, 0.7))
        np.testing.assert_array_equal(a.select_leaders(rng, 3), [[0.3, 0.7]] * 3)

    def test_higher_crowding_wins(self, queued_rng):
        a = ExternalArchive(8, 2, 2)
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
        a = ExternalArchive(4, 2, 2)
        a.try_insert(*entry(0.3, 0.7))
        leaders = a.select_leaders(rng, 2)
        a.try_insert(*entry(0.1, 0.1))
        np.testing.assert_array_equal(leaders, [[0.3, 0.7]] * 2)

    def test_draws_two_blocks(self):
        a = ExternalArchive(8, 2, 2)
        for x in np.linspace(0.0, 1.0, 5):
            a.try_insert(*entry(float(x), float(1.0 - x)))
        got, expected = np.random.default_rng(7), np.random.default_rng(7)
        a.select_leaders(got, 6)
        expected.integers(0, 5, size=(6, 2))
        expected.random(6)
        assert got.bit_generator.state == expected.bit_generator.state

    def test_three_objective_leaders_are_those_of_a_fresh_archive_of_the_same_entries(self, rng):
        def fresh_leaders(archive):
            fresh = ExternalArchive(8, 3, 3)
            for y in archive.objectives_array():
                fresh.try_insert(*entry(*y))
            return fresh.select_leaders(np.random.default_rng(3), 6).tobytes()

        a = ExternalArchive(8, 3, 3)
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
            ExternalArchive(2, 2, 2).select_leaders(rng, 1)

    def test_boundary_bias(self, rng):
        a = ExternalArchive(20, 2, 2)
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
