"""Benchmark problem registry: ZDT, DTLZ and WFG suites.

:func:`get_problem` is the one place that reads a problem name.  It
looks the name up in one table and builds, once per (name, objective
count), a :class:`ProblemInstance` bundling the evaluator, its box
bounds, the hypervolume reference point and, where a closed form exists,
a sampled theoretical front from its suite's builder in :mod:`.fronts`.
Every problem runs at its suite's canonical size: ZDT (Zitzler, Deb &
Thiele 2000), DTLZ (Deb et al. 2005) and WFG (Huband et al., IEEE TEVC
2006).  The DTLZ and WFG evaluators are built with their instance, so
their constants are computed once per instance, which wraps them in one
shape, bounds and finiteness check per call.  The cache shares each
instance: its box owns and freezes its own arrays, and the instance
freezes its reference point and front.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .._checks import check_count
from ..swarm import BoxBounds
from . import fronts
from .dtlz import dtlz_dimension, dtlz_evaluator
from .fronts import ZDT6_F1_MIN
from .wfg import wfg_bounds, wfg_evaluator, wfg_scales
from .zdt import ZDT_DIMENSIONS, zdt1, zdt2, zdt3, zdt4, zdt6

__all__ = [
    "ProblemInstance",
    "get_problem",
    "parse_problem_id",
    "available_problems",
    "ZDT6_F1_MIN",
    "ZDT_REFERENCE_HV",
]

_ZDT_EVALUATORS = {"zdt1": zdt1, "zdt2": zdt2, "zdt3": zdt3, "zdt4": zdt4, "zdt6": zdt6}

# every registered name -> (suite, index), in available_problems() order
_REGISTRY = {
    f"{suite}{index}": (suite, index)
    for suite, indices in (("zdt", (1, 2, 3, 4, 6)), ("dtlz", range(1, 8)), ("wfg", range(1, 10)))
    for index in indices
}
_DEFAULT_OBJECTIVES = {"zdt": 2, "dtlz": 3, "wfg": 5}

# Hypervolume of the continuum fronts against the canonical (2, 2)
# reference point.  zdt1/2/4 are analytic (11/3, 10/3); zdt3 and zdt6
# come from dense numeric sweeps of their front curves.
ZDT_REFERENCE_HV = {
    "zdt1": 11.0 / 3.0,
    "zdt2": 10.0 / 3.0,
    "zdt3": 4.817794798046633,
    "zdt4": 11.0 / 3.0,
    "zdt6": 3.045179727720758,
}


@dataclass(frozen=True)
class ProblemInstance:
    """An objective evaluator with its bounds and reference data."""

    name: str
    n_var: int
    n_obj: int
    bounds: BoxBounds
    evaluate: Callable[[np.ndarray], np.ndarray]
    reference_front: np.ndarray | None
    reference_hv: float | None
    hv_reference_point: np.ndarray

    def __post_init__(self) -> None:
        # get_problem's cache shares each instance with every later caller;
        # the box already froze its own arrays
        for a in (self.hv_reference_point, self.reference_front):
            if a is not None:
                a.setflags(write=False)


def _checked(name: str, bounds: BoxBounds, fn: Callable) -> Callable:
    lower, upper = bounds.lower, bounds.upper
    n = lower.shape[0]

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != lower.shape:
            raise ValueError(f"{name} expects {n} variables, got {x.shape}")
        # counts the components inside, so a NaN, which compares False, fails it
        if np.count_nonzero((lower <= x) & (x <= upper)) != n:
            raise ValueError(f"{name}: input outside box bounds")
        y = fn(x)
        # a NaN compares False with everything, so the archive would take it
        if not all(map(math.isfinite, y.tolist())):
            raise ValueError(f"{name}: non-finite objectives {y}")
        return y

    return evaluate


def available_problems() -> list[str]:
    return list(_REGISTRY)


def parse_problem_id(problem_id: str) -> tuple[str, int | None]:
    """Split "name" or "name:objectives" into (name, n_obj or None); the
    count is ASCII digits, so "1_0", "+3" and non-ASCII digits, which
    ``int`` reads, are refused."""
    name, colon, m = problem_id.partition(":")
    if colon and not re.fullmatch(r"\s*-?[0-9]+\s*", m):
        raise ValueError(f"problem id {problem_id!r}: the objective count after ':' must be an integer")
    return name.strip().lower(), int(m) if colon else None


def get_problem(name: str, n_obj: int | None = None) -> ProblemInstance:
    """Build a registered problem (any letter case) and its evaluator; an
    n_obj of None means the suite's default (2 for ZDT, 3 for DTLZ, 5 for
    WFG).  Instances are cached on (registered name, objective count), so
    every spelling of one problem ("dtlz2", "DTLZ2", n_obj=3) shares one."""
    registered = name.lower()
    try:
        suite, _ = _REGISTRY[registered]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(_REGISTRY)}") from None
    m = _DEFAULT_OBJECTIVES[suite] if n_obj is None else n_obj
    check_count("n_obj", m)
    if suite == "zdt" and m != 2:
        raise ValueError(f"{registered} is bi-objective; got n_obj={n_obj!r}")
    return _build(registered, m)


@lru_cache(maxsize=None)
def _build(name: str, m: int) -> ProblemInstance:
    suite, index = _REGISTRY[name]
    if suite == "zdt":
        evaluate, n = _ZDT_EVALUATORS[name], ZDT_DIMENSIONS[name]
        lower, upper = np.zeros(n), np.ones(n)
        if index == 4:
            lower[1:], upper[1:] = -5.0, 5.0
        front = fronts.zdt_front(index)
    elif suite == "dtlz":
        evaluate, n = dtlz_evaluator(index, m), dtlz_dimension(index, m)
        lower, upper = np.zeros(n), np.ones(n)
        front = fronts.dtlz_front(index, m)
    else:
        evaluate = wfg_evaluator(index, m)
        lower, upper = wfg_bounds(m)
        front = fronts.wfg_front(index, m)
    # nadir + 1: 2 for ZDT/DTLZ, 2j + 1 for WFG, 2m + 1 for DTLZ7's last objective
    reference_point = wfg_scales(m) + 1.0 if suite == "wfg" else np.full(m, 2.0)
    if name == "dtlz7":
        reference_point[-1] = 2.0 * m + 1.0
    bounds = BoxBounds(lower, upper)
    return ProblemInstance(
        name=name,
        n_var=lower.shape[0],
        n_obj=m,
        bounds=bounds,
        evaluate=_checked(name, bounds, evaluate),
        reference_front=front,
        reference_hv=ZDT_REFERENCE_HV.get(name),
        hv_reference_point=reference_point,
    )
