"""The one check of a count setting: a Python or numpy integer, never a
bool or a float, refused where it is set rather than mid-run."""

import numpy as np


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
