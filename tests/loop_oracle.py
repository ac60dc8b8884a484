"""The generation loop one particle at a time, for tests only.

Each particle is an object with its own position, velocity, momentum and
personal best, and every step (initial draw, leader tournament,
coefficients, velocity, position and bounce, turbulence, evaluation,
archive insertion, personal best) runs once per particle in swarm order,
and the archive is the list-based ``archive_oracle.ListArchive``.  The
draws come in the blocks that ``fcpso.optimizer`` documents, and each
particle takes its own slice of a block, so ``fcpso.optimizer.run`` must
reproduce this loop bitwise: same fronts, positions and evaluation
count, and the same calls to an observer.  The turbulence is ``mutate_row``, this module's own
per-row polynomial mutation, independent of ``fcpso.mutation``.
"""

from dataclasses import dataclass

import numpy as np
from archive_oracle import ListArchive, dominates

from fcpso.constriction import chi_momentum, chi_vanilla
from fcpso.optimizer import RunResult


@dataclass
class Particle:
    position: np.ndarray
    velocity: np.ndarray
    momentum: np.ndarray
    pbest_position: np.ndarray
    pbest_objectives: np.ndarray


def _clamp_speed(v, bounds):
    return np.minimum(np.maximum(v, -bounds.delta), bounds.delta)


def speed_smpso(p, gbest, coefficients, inertia, bounds):
    r1, r2, c1, c2 = coefficients
    chi = chi_vanilla(c1 + c2)
    v = chi * (
        inertia * p.velocity
        + c1 * r1 * (p.pbest_position - p.position)
        + c2 * r2 * (gbest - p.position)
    )
    return _clamp_speed(v, bounds)


def speed_em(p, gbest, coefficients, bounds):
    r1, r2, c1, c2, beta = coefficients
    chi = chi_momentum(c1 + c2, beta)
    m = beta * p.momentum + (1.0 - beta) * p.velocity
    v = chi * (m + c1 * r1 * (p.pbest_position - p.position) + c2 * r2 * (gbest - p.position))
    return _clamp_speed(v, bounds), m


def move(p, bounds):
    """x' = x + v; a component past a wall is put on it and its velocity reversed."""
    x = p.position + p.velocity
    low = x < bounds.lower
    high = x > bounds.upper
    if low.any() or high.any():
        x = np.where(low, bounds.lower, x)
        x = np.where(high, bounds.upper, x)
        p.velocity = np.where(low | high, -p.velocity, p.velocity)
    p.position = x


def mutate_row(x, lower, upper, cfg, rng):
    """Polynomial mutation of one point with numpy scalars: one
    ``rng.random(2 * n)`` block, variable i mutating when entry i is below
    the probability, by the u in entry n + i; no draw at probability 0."""
    n = x.shape[0]
    prob = cfg.per_variable_probability if cfg.per_variable_probability is not None else 1.0 / n
    out = x.copy()
    if prob == 0.0:
        return out
    eta = cfg.distribution_index
    mut_pow = 1.0 / (eta + 1.0)
    draws = rng.random(2 * n)
    for i in np.flatnonzero(draws[:n] < prob):
        lo, hi = lower[i], upper[i]
        u = draws[n + i]
        d1 = (x[i] - lo) / (hi - lo)
        d2 = (hi - x[i]) / (hi - lo)
        if u <= 0.5:
            val = 2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (eta + 1.0)
            dq = val**mut_pow - 1.0
        else:
            val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (eta + 1.0)
            dq = 1.0 - val**mut_pow
        out[i] = min(max(x[i] + dq * (hi - lo), lo), hi)
    return out


def remember(p, y, rng):
    """Keep a dominating record; otherwise a coin flip decides."""
    if dominates(p.pbest_objectives, y):
        return
    if not dominates(y, p.pbest_objectives) and rng.random() >= 0.5:
        return
    p.pbest_position = p.position.copy()
    p.pbest_objectives = y


def initial_swarm(problem, dyn, rng):
    bounds = problem.bounds
    n = bounds.lower.shape[0]
    swarm = []
    for _ in range(dyn.swarm_size):
        x = rng.uniform(bounds.lower, bounds.upper)
        y = np.asarray(problem.evaluate(x), dtype=float)
        swarm.append(Particle(x, np.zeros(n), np.zeros(n), x.copy(), y))
    return swarm


def run_oracle(problem, cfg, seed, observe=None) -> RunResult:
    """``fcpso.optimizer.run`` as a per-particle loop."""
    rng = np.random.default_rng(seed)
    dyn, bounds = cfg.dynamics, problem.bounds

    swarm = initial_swarm(problem, dyn, rng)
    archive = ListArchive(cfg.archive_capacity)
    for p in swarm:
        archive.try_insert(p.position, p.pbest_objectives)
    evaluations = dyn.swarm_size

    def stop():
        return observe is not None and observe(evaluations, archive)

    em = dyn.variant != "smpso"
    lo, hi = dyn.scheme.phi1 / 2.0, dyn.scheme.phi2 / 2.0
    beta1, beta2 = dyn.scheme.beta1, dyn.scheme.beta2
    done = stop()
    while not done and evaluations + dyn.swarm_size <= cfg.max_evaluations:
        leaders = archive.select_leaders(rng, dyn.swarm_size)
        u = rng.random((dyn.swarm_size, 5 if em else 4))
        for p, leader, (r1, r2, u1, u2, *ub) in zip(swarm, leaders, u.tolist()):
            coefficients = (r1, r2, lo + (hi - lo) * u1, lo + (hi - lo) * u2)
            if em:
                coefficients += (beta1 + (beta2 - beta1) * ub[0],)
                p.velocity, p.momentum = speed_em(p, leader, coefficients, bounds)
            else:
                p.velocity = speed_smpso(p, leader, coefficients, dyn.inertia, bounds)
            move(p, bounds)
        if cfg.mutation.particle_fraction != 0.0:
            picks = rng.random(dyn.swarm_size)
            for p, pick in zip(swarm, picks):
                if pick < cfg.mutation.particle_fraction:
                    p.position = mutate_row(p.position, bounds.lower, bounds.upper, cfg.mutation, rng)
        objectives = [problem.evaluate(p.position) for p in swarm]
        evaluations += dyn.swarm_size
        for p, y in zip(swarm, objectives):
            archive.try_insert(p.position, y)
        for p, y in zip(swarm, objectives):
            remember(p, y, rng)
        done = stop()

    return RunResult(archive.objectives_array(), archive.positions_array(), evaluations)
