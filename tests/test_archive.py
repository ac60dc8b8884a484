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


class TestNonDominatedMask:
    def test_simple(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(non_dominated_mask(F), [True, False, True])

    def test_duplicates_keep_first(self):
        F = np.array([[1.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(non_dominated_mask(F), [True, False])

    def test_2d_matches_general(self, rng):
        # the 2-objective sweep must agree with the generic quadratic filter
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

    def test_2d_nan_does_not_hide_later_points(self):
        # a NaN f2 is never kept, and the points after it in the sweep
        # still compare with the best f2 before it
        F = np.array([[0.0, np.nan], [1.0, 1.0], [2.0, 0.5], [3.0, 2.0]])
        np.testing.assert_array_equal(non_dominated_mask(F), [False, True, True, False])


class TestCrowdingDistance:
    def test_hand_example(self):
        d = crowding_distance(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]))
        assert d[0] == np.inf and d[2] == np.inf
        assert d[1] == pytest.approx(2.0)

    def test_single_entry(self):
        assert crowding_distance(np.array([[1.0, 2.0]]))[0] == np.inf

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

    def test_dimension_mismatch(self):
        a = ExternalArchive(capacity=4)
        a.try_insert(*entry(0.0, 1.0))
        with pytest.raises(ValueError):
            a.try_insert(*entry(0.0, 1.0, 2.0))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ExternalArchive(capacity=0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_changes_counts_the_candidates_that_change_the_archive(self, k):
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
        expected = 0
        for objs, outcome in steps:
            assert a.try_insert(*entry(*objs, *pad)) == outcome
            expected += outcome != DOMINATED
            assert a.changes == expected


class TestNonFiniteObjectives:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("held", [0, 2])
    def test_rejected_naming_the_values(self, k, bad, held):
        # the candidate beats the (0, 1) and (1, 0) corners in the last
        # objective, so at k = 3 neither entry dominates it
        a = ExternalArchive(capacity=2)
        corners = [entry(0.0, 1.0, *[0.5] * (k - 2)), entry(1.0, 0.0, *[0.5] * (k - 2))]
        for x, y in corners[:held]:
            a.try_insert(x, y)
        before = a.objectives_array().tolist()
        candidate = [bad, 0.1, *[0.1] * (k - 2)]
        with pytest.raises(ValueError, match=re.escape(str(candidate))):
            a.try_insert(*entry(*candidate))
        assert a.objectives_array().tolist() == before

    def test_three_objective_check_follows_dominance(self):
        a = ExternalArchive(capacity=2)
        a.try_insert(*entry(0.0, 0.0, 0.0))
        assert a.try_insert(*entry(np.inf, 1.0, 1.0)) == DOMINATED


class TestArchiveInvariants:
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

    def test_three_objectives_reuse_crowding_until_the_archive_changes(self, rng, monkeypatch):
        from fcpso import archive as module

        calls = []
        crowding = module.crowding_distance
        monkeypatch.setattr(module, "crowding_distance", lambda F: calls.append(len(F)) or crowding(F))
        a = ExternalArchive(capacity=8)
        for x in np.linspace(0.0, 1.0, 5):
            a.try_insert(*entry(float(x), float(1.0 - x), 0.5))
        fresh = ExternalArchive(capacity=8)
        for y in a.objectives_array():
            fresh.try_insert(*entry(*y))
        first = a.select_leaders(np.random.default_rng(3), 6)
        assert a.select_leaders(np.random.default_rng(3), 6).tobytes() == first.tobytes()
        assert a.try_insert(*entry(2.0, 2.0, 2.0)) == DOMINATED
        a.select_leaders(rng, 6)
        assert calls == [5]
        a.try_insert(*entry(0.25, 0.25, 0.25))  # drops the three interior entries
        a.select_leaders(rng, 6)
        assert calls == [5, 3]
        # the reused crowding draws what a fresh archive of the same entries draws
        assert fresh.select_leaders(np.random.default_rng(3), 6).tobytes() == first.tobytes()

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
