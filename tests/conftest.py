import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # test-local oracles


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


class QueuedRNG:
    """Stand-in generator returning scripted draws in order, a block of
    any shape filled row by row, for forcing the draws of a step."""

    def __init__(self, values):
        self.values = list(values)

    def _take(self, size, kind):
        if size is None:
            return kind(self.values.pop(0))
        shape = (size,) if isinstance(size, int) else tuple(size)
        return np.array([kind(self.values.pop(0)) for _ in range(int(np.prod(shape)))]).reshape(shape)

    def random(self, size=None):
        return self._take(size, float)

    def integers(self, low, high, size=None):
        return self._take(size, int)


@pytest.fixture
def queued_rng():
    return QueuedRNG
