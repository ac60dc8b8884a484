"""The generation loop: evaluate, archive, remember, observe, then move and mutate.

The swarm is a block of arrays; :mod:`fcpso.swarm` says which steps run
per row and which once per generation.  ``np.random.default_rng(seed)``
is the run's only random source, and the order of its draws is part of
the contract: a swarm of N particles over n variables starts from one
``rng.random(N * n)`` block of positions
(:func:`~fcpso.swarm.initialize_swarm`).  That swarm is generation 0,
whose personal-best step draws ``rng.random(0)``, nothing, as every
personal best starts at +inf; then each generation, with an archive of
a entries, draws

1. the leaders: ``rng.integers(0, a, size=(N, 2))``, then ``rng.random(N)``
   for ties (:meth:`~fcpso.archive.ExternalArchive.select_leaders`);
2. the coefficients: ``rng.random((N, 4))``, or ``(N, 5)`` with momentum
   (:func:`~fcpso.swarm.draw_coefficients`);
3. the turbulence, unless its particle fraction is 0: ``rng.random(N)``
   picks the P rows, then ``rng.random((P, 2 * n))`` holds their
   mutations, row by row in row order, or nothing is drawn at a
   per-variable probability of 0 (:func:`~fcpso.mutation.apply_turbulence`).
   The block is bitwise one ``rng.random(2 * n)`` per picked row in turn;
4. ``rng.random(k)`` for the k undecided personal bests
   (:func:`~fcpso.swarm.update_pbest`).

One run is fully determined by (problem, config, seed), which name it;
its :class:`RunResult` holds only what it produced.  Termination is
the evaluation budget or an observer: ``observe(evaluations, archive)``
runs after every generation's personal-best step, generation 0's
included, reads the archive, and ends the run by returning true.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count
from .archive import ExternalArchive
from .mutation import MutationConfig, apply_turbulence
from .problems import ProblemInstance
from .swarm import (
    DynamicsConfig,
    compute_speed_em,
    compute_speed_smpso,
    draw_coefficients,
    initialize_swarm,
    update_pbest,
    update_position,
)

__all__ = ["RunConfig", "RunResult", "run"]


@dataclass(frozen=True)
class RunConfig:
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    mutation: MutationConfig = field(default_factory=MutationConfig)
    max_evaluations: int = 25_000
    archive_capacity: int = 100

    def __post_init__(self) -> None:
        check_count("archive_capacity", self.archive_capacity, 1)
        check_count("max_evaluations", self.max_evaluations)
        if self.max_evaluations < self.dynamics.swarm_size:
            raise ValueError(
                f"max_evaluations must cover at least one swarm evaluation: got {self.max_evaluations!r}, "
                f"swarm_size is {self.dynamics.swarm_size}"
            )


@dataclass
class RunResult:
    """A run's outputs: the archive as the front and the evaluations used;
    the run itself is named by its inputs, not repeated here."""

    front_objectives: np.ndarray
    front_positions: np.ndarray
    evaluations_used: int

    @property
    def front_size(self) -> int:
        return self.front_objectives.shape[0]


def run(problem: ProblemInstance, cfg: RunConfig, seed: int, observe: Callable | None = None) -> RunResult:
    """Execute one optimization run and return the archive as the front;
    ``observe(evaluations, archive)``, such as an ``indicators.HvTrace``, may end it."""
    check_count("seed", seed, 0)
    dyn = cfg.dynamics
    bounds = problem.bounds

    rng = np.random.default_rng(seed)
    swarm = initialize_swarm(problem, dyn, rng)
    archive = ExternalArchive(cfg.archive_capacity, problem.n_obj, problem.n_var)
    em = dyn.variant != "smpso"
    X, V, M, P = swarm.positions, swarm.velocities, swarm.momenta, swarm.pbest_positions
    evaluations = 0
    while True:
        objectives = np.array([problem.evaluate(x) for x in X])
        evaluations += dyn.swarm_size
        for x, y in zip(X, objectives):
            archive.try_insert(x, y)
        update_pbest(swarm, objectives, rng)
        if observe is not None and observe(evaluations, archive):
            break
        if evaluations + dyn.swarm_size > cfg.max_evaluations:
            break
        # the archive is frozen while the swarm moves
        leaders = archive.select_leaders(rng, dyn.swarm_size)
        coefficients = draw_coefficients(dyn.scheme, rng, em, dyn.swarm_size).tolist()
        for i in range(dyn.swarm_size):
            if em:
                V[i], M[i] = compute_speed_em(X[i], V[i], M[i], P[i], leaders[i], coefficients[i], bounds)
            else:
                V[i] = compute_speed_smpso(X[i], V[i], P[i], leaders[i], coefficients[i], dyn.inertia, bounds)
        update_position(swarm, bounds)
        apply_turbulence(X, bounds, cfg.mutation, rng)

    return RunResult(archive.objectives_array(), archive.positions_array(), evaluations)
