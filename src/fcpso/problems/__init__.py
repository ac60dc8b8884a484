"""Benchmark problem registry: ZDT, DTLZ and WFG suites.

Every problem is exposed as a :class:`ProblemInstance` bundling the
evaluator, its box bounds, the canonical hypervolume reference point and
(where a closed form exists) a sampled theoretical front.  The DTLZ and
WFG evaluators come from cached builders, so their constants are
computed once per instance; the instance wraps them in one shape,
bounds and finiteness check per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..swarm import BoxBounds
from . import fronts
from .dtlz import DTLZ_DISTANCE_VARS, dtlz_dimension, dtlz_evaluator
from .fronts import ZDT6_F1_MIN, theoretical_front
from .wfg import WFG_DISTANCE_VARS, wfg_bounds, wfg_dimension, wfg_evaluator
from .zdt import ZDT_DIMENSIONS, zdt1, zdt2, zdt3, zdt4, zdt6

__all__ = [
    "ProblemInstance",
    "get_problem",
    "parse_problem_id",
    "available_problems",
    "theoretical_front",
    "ZDT6_F1_MIN",
    "ZDT_REFERENCE_HV",
]

_ZDT_EVALUATORS = {"zdt1": zdt1, "zdt2": zdt2, "zdt3": zdt3, "zdt4": zdt4, "zdt6": zdt6}

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
        # get_problem's cache shares each instance with every later caller
        b = self.bounds
        for a in (b.lower, b.upper, b.delta, b.neg_delta, self.hv_reference_point, self.reference_front):
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
    return (
        sorted(_ZDT_EVALUATORS)
        + [f"dtlz{i}" for i in DTLZ_DISTANCE_VARS]
        + [f"wfg{i}" for i in range(1, 10)]
    )


def parse_problem_id(problem_id: str) -> tuple[str, int | None]:
    """Split "name" or "name:objectives" into (name, n_obj or None)."""
    if ":" in problem_id:
        name, _, m = problem_id.partition(":")
        try:
            return name.strip().lower(), int(m)
        except ValueError:
            raise ValueError(
                f"problem id {problem_id!r}: the objective count after ':' must be an integer"
            ) from None
    return problem_id.strip().lower(), None


def _unknown(name: str) -> ValueError:
    return ValueError(f"unknown problem {name!r}; available: {', '.join(available_problems())}")


def _reference_front(name: str, m: int) -> np.ndarray | None:
    try:
        return theoretical_front(name, m)
    except ValueError:
        return None


@lru_cache(maxsize=None)
def get_problem(name: str, n_obj: int | None = None, n_var: int | None = None) -> ProblemInstance:
    """Build a registered problem and its evaluator, once per argument
    tuple; n_obj/n_var of None fall back to the suite's canonical
    defaults."""
    name = name.lower()
    if name in _ZDT_EVALUATORS:
        if n_obj not in (None, 2):
            raise ValueError(f"{name} is bi-objective; got n_obj={n_obj!r}")
        n = ZDT_DIMENSIONS[name] if n_var is None else n_var
        if n < 2:
            raise ValueError(f"{name} needs at least 2 variables, got n_var={n_var!r}")
        if name == "zdt4":
            lower = np.full(n, -5.0)
            upper = np.full(n, 5.0)
            lower[0], upper[0] = 0.0, 1.0
        else:
            lower, upper = np.zeros(n), np.ones(n)
        bounds = BoxBounds(lower, upper)
        return ProblemInstance(
            name=name,
            n_var=n,
            n_obj=2,
            bounds=bounds,
            evaluate=_checked(name, bounds, _ZDT_EVALUATORS[name]),
            reference_front=_reference_front(name, 2),
            reference_hv=ZDT_REFERENCE_HV[name],
            hv_reference_point=np.array([2.0, 2.0]),
        )

    if name.startswith("dtlz"):
        index = int(name[4:]) if name[4:].isdigit() else None
        if index not in DTLZ_DISTANCE_VARS:
            raise _unknown(name)
        m = 3 if n_obj is None else n_obj
        evaluate = dtlz_evaluator(index, m)
        n = dtlz_dimension(index, m) if n_var is None else n_var
        if n < m:
            raise ValueError(f"{name} needs at least {m} variables for {m} objectives, got {n}")
        bounds = BoxBounds(np.zeros(n), np.ones(n))
        return ProblemInstance(
            name=name,
            n_var=n,
            n_obj=m,
            bounds=bounds,
            evaluate=_checked(name, bounds, evaluate),
            reference_front=_reference_front(name, m),
            reference_hv=None,
            hv_reference_point=np.full(m, 2.0),
        )

    if name.startswith("wfg"):
        index = int(name[3:]) if name[3:].isdigit() else 0
        if not 1 <= index <= 9:
            raise _unknown(name)
        m = 5 if n_obj is None else n_obj
        if n_var is not None and n_var <= 2 * (m - 1):
            raise ValueError(f"{name} needs more than {2 * (m - 1)} variables for {m} objectives")
        l = (n_var - 2 * (m - 1)) if n_var is not None else WFG_DISTANCE_VARS
        evaluate = wfg_evaluator(index, m, l)
        lower, upper = wfg_bounds(m, l)
        bounds = BoxBounds(lower, upper)
        return ProblemInstance(
            name=name,
            n_var=wfg_dimension(m, l),
            n_obj=m,
            bounds=bounds,
            evaluate=_checked(name, bounds, evaluate),
            reference_front=_reference_front(name, m),
            reference_hv=None,
            hv_reference_point=2.0 * np.arange(1, m + 1, dtype=float) + 1.0,
        )

    raise _unknown(name)
