"""The one check of a count setting (an integer) and of a fraction (a real
number in [0, 1]), never a bool, refused where it is set rather than mid-run."""

import numpy as np


def check_count(name: str, value, minimum: int | None = None) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is an integer of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def check_fraction(name: str, value) -> None:
    """Raise ValueError, naming ``name``, unless ``value`` is a real number in [0, 1]."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
