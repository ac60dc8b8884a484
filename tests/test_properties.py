"""Property tests for the archive and hypervolume invariants.

Objectives are small integers, so duplicates and ties are common, and
every hypervolume is an exact sum of integer boxes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcpso.archive import ArchiveEntry, ExternalArchive, dominates
from fcpso.indicators import hypervolume

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def objective_stream(draw, slots_per_objective=0):
    k = draw(st.integers(2, 3))
    low = max(1, slots_per_objective * k)
    capacity = draw(st.integers(low, low + 6))
    # points near the plane sum(f) = 20 are mostly mutually non-dominated,
    # so the archive overflows and evicts often
    head = st.lists(st.integers(0, 10), min_size=k - 1, max_size=k - 1)
    points = draw(st.lists(st.tuples(head, st.integers(0, 2)), max_size=40))
    return capacity, [np.array([*h, 20 - sum(h) + noise], dtype=float) for h, noise in points]


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
        archive.try_insert(ArchiveEntry(np.zeros(1), y))
        assert len(archive) <= capacity
        assert _mutually_non_dominated(archive.objectives_array())


@PROPERTY_SETTINGS
@given(objective_stream(slots_per_objective=2))
def test_archive_keeps_each_objective_minimum(stream):
    capacity, points = stream
    archive = ExternalArchive(capacity)
    for y in points:
        before = [e.objectives for e in archive.entries] + [y]
        archive.try_insert(ArchiveEntry(np.zeros(1), y))
        np.testing.assert_array_equal(archive.objectives_array().min(axis=0), np.min(before, axis=0))


@st.composite
def front_and_point(draw):
    k = draw(st.integers(2, 3))
    coords = st.lists(st.integers(0, 10), min_size=k, max_size=k)
    front = np.array(draw(st.lists(coords, min_size=1, max_size=12)), dtype=float)
    point = np.array(draw(coords), dtype=float)
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
