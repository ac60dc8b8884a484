"""The generation loop: initialize, move, mutate, evaluate, archive, remember.

The swarm is a block of arrays; :mod:`fcpso.swarm` says which steps run
per row and which once per generation.  ``np.random.default_rng(seed)``
is the run's only random source, and the order of its draws is part of
the contract: a swarm of N particles over n variables starts from one
``rng.random(N * n)`` block of positions
(:func:`~fcpso.swarm.initialize_swarm`), then each generation, with an
archive of a entries, draws

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
either an evaluation budget or reaching a fraction of a reference
hypervolume, whichever comes first.  The archive hypervolume is traced
from the initial swarm on, every generation under a hypervolume target
and every ``record_interval`` generations otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import check_count
from .archive import ExternalArchive
from .indicators import hypervolume
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
    hv_target_fraction: float | None = None  # None -> pure budget termination
    record_interval: int = 0  # generations between hv-trace samples (0 = off)

    def __post_init__(self) -> None:
        check_count("archive_capacity", self.archive_capacity, 1)
        check_count("max_evaluations", self.max_evaluations)
        if self.max_evaluations < self.dynamics.swarm_size:
            raise ValueError(
                f"max_evaluations must cover at least one swarm evaluation: got {self.max_evaluations!r}, "
                f"swarm_size is {self.dynamics.swarm_size}"
            )
        if self.hv_target_fraction is not None and not 0.0 <= self.hv_target_fraction <= 1.0:
            raise ValueError(f"hv_target_fraction must lie in [0, 1], got {self.hv_target_fraction!r}")
        check_count("record_interval", self.record_interval, 0)

    def hv_target(self, problem: ProblemInstance) -> float | None:
        """The hypervolume that stops a run on ``problem``; None under pure
        budget termination.  ``problem.reference_hv`` is the only reference;
        ``dataclasses.replace(problem, reference_hv=...)`` sets another."""
        if self.hv_target_fraction is None:
            return None
        if problem.reference_hv is None:
            raise ValueError(f"hv-target termination needs a reference hypervolume, and {problem.name} has none")
        return self.hv_target_fraction * problem.reference_hv


@dataclass
class RunResult:
    """A run's outputs: the archive as the front, the evaluations used and
    the hv trace; the run itself is named by its inputs, not repeated here."""

    front_objectives: np.ndarray
    front_positions: np.ndarray
    evaluations_used: int
    hv_trace: list[tuple[int, float]]

    @property
    def front_size(self) -> int:
        return self.front_objectives.shape[0]


def run(problem: ProblemInstance, cfg: RunConfig, seed: int) -> RunResult:
    """Execute one optimization run and return the archive as the front."""
    check_count("seed", seed, 0)
    dyn = cfg.dynamics
    bounds = problem.bounds
    hv_target = cfg.hv_target(problem)

    rng = np.random.default_rng(seed)
    swarm = initialize_swarm(problem, dyn, rng)
    archive = ExternalArchive(cfg.archive_capacity, problem.n_obj, problem.n_var)
    for x, y in zip(swarm.positions, swarm.pbest_objectives):
        archive.try_insert(x, y)
    evaluations = dyn.swarm_size

    trace: list[tuple[int, float]] = []
    interval = 1 if hv_target is not None else cfg.record_interval
    generation = 0

    def target_reached() -> bool:
        """Trace the archive hypervolume when due; True once it meets the target."""
        if not interval or generation % interval:
            return False
        hv = hypervolume(archive.objectives_array(), problem.hv_reference_point)
        trace.append((evaluations, hv))
        return hv_target is not None and hv >= hv_target

    em = dyn.variant != "smpso"
    X, V, M, P = swarm.positions, swarm.velocities, swarm.momenta, swarm.pbest_positions
    done = target_reached()
    while not done and evaluations + dyn.swarm_size <= cfg.max_evaluations:
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
        objectives = np.array([problem.evaluate(x) for x in X])
        evaluations += dyn.swarm_size
        for x, y in zip(X, objectives):
            archive.try_insert(x, y)
        update_pbest(swarm, objectives, rng)
        generation += 1
        done = target_reached()

    return RunResult(archive.objectives_array(), archive.positions_array(), evaluations, trace)

