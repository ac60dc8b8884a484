"""The generation loop: initialize, move, mutate, evaluate, archive, remember.

The swarm is a block of arrays; :mod:`fcpso.swarm` says which steps run
per row and which once per generation.  The run's ``Generator(PCG64(seed))``
draws the initial swarm; leader, coefficient, turbulence and personal-best
draws then come from a :class:`~fcpso.tape.RandomTape` over it, which
serves the same stream from blocks of raw words.

One run is fully determined by (problem, config, seed).  Termination is
either an evaluation budget or reaching a fraction of a reference
hypervolume, whichever comes first.  The archive hypervolume is traced
from the initial swarm on, every generation under a hypervolume target
and every ``record_interval`` generations otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# a module, not its class: perfbench's layer tracer wraps the classes this
# module imports by name, and a wrapper on every draw costs more than the draw
from . import tape
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
    reference_hv: float | None = None  # None -> problem.reference_hv
    record_interval: int = 0  # generations between hv-trace samples (0 = off)

    def __post_init__(self) -> None:
        if self.archive_capacity < 1:
            raise ValueError(f"archive_capacity must be >= 1, got {self.archive_capacity!r}")
        if self.max_evaluations < self.dynamics.swarm_size:
            raise ValueError(
                f"max_evaluations must cover at least one swarm evaluation: got {self.max_evaluations!r}, "
                f"swarm_size is {self.dynamics.swarm_size}"
            )
        if self.hv_target_fraction is not None and not 0.0 <= self.hv_target_fraction <= 1.0:
            raise ValueError(f"hv_target_fraction must lie in [0, 1], got {self.hv_target_fraction!r}")
        if self.record_interval < 0:
            raise ValueError("record_interval must be >= 0")


@dataclass
class RunResult:
    problem: str
    variant: str
    scheme: tuple[float, float, float, float]
    seed: int
    front_objectives: np.ndarray
    front_positions: np.ndarray
    evaluations_used: int
    hv_trace: list[tuple[int, float]]
    wall_time: float

    @property
    def front_size(self) -> int:
        return self.front_objectives.shape[0]


def run(problem: ProblemInstance, cfg: RunConfig, seed: int) -> RunResult:
    """Execute one optimization run and return the archive as the front."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(seed))
    dyn = cfg.dynamics
    bounds = problem.bounds

    hv_target = None
    if cfg.hv_target_fraction is not None:
        reference_hv = cfg.reference_hv if cfg.reference_hv is not None else problem.reference_hv
        if reference_hv is None:
            raise ValueError(
                f"hv-target termination needs a reference hypervolume, and {problem.name} "
                "has none; set RunConfig.reference_hv"
            )
        hv_target = cfg.hv_target_fraction * reference_hv

    swarm = initialize_swarm(problem, dyn, rng)
    # every later draw decodes from the generator's raw words, bitwise the
    # generator's own stream
    draws = tape.RandomTape(rng)
    archive = ExternalArchive(cfg.archive_capacity)
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
        # the archive is frozen while the swarm moves; each row draws its
        # leader, then its coefficients, in row order
        for i in range(dyn.swarm_size):
            leader = archive.select_leader(draws)
            coefficients = draw_coefficients(dyn.scheme, draws, em)
            if em:
                V[i], M[i] = compute_speed_em(X[i], V[i], M[i], P[i], leader, coefficients, bounds)
            else:
                V[i] = compute_speed_smpso(X[i], V[i], P[i], leader, coefficients, dyn.inertia, bounds)
        update_position(swarm, bounds)
        apply_turbulence(X, bounds, cfg.mutation, draws)
        objectives = np.array([problem.evaluate(x) for x in X])
        evaluations += dyn.swarm_size
        for x, y in zip(X, objectives):
            archive.try_insert(x, y)
        update_pbest(swarm, objectives, draws)
        generation += 1
        done = target_reached()

    return RunResult(
        problem=problem.name,
        variant=dyn.variant,
        scheme=dyn.scheme.as_tuple(),
        seed=seed,
        front_objectives=archive.objectives_array(),
        front_positions=archive.positions_array(),
        evaluations_used=evaluations,
        hv_trace=trace,
        wall_time=time.perf_counter() - t0,
    )

