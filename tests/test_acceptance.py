"""Acceptance criteria, one test per criterion.

Each test prints a [acceptance] PASS/FAIL line.  The heavy optimization
batches (criteria 5-7, 9, 10) run 25,000-evaluation swarms across 20
seeds through a 2-worker pool and are shared between criteria where the
protocol allows.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats as st

from fcpso.constriction import activation_event, chi_momentum, chi_vanilla, lambda_max
from fcpso.experiments import _run_cells, mann_whitney_p, median, run_experiment, unfairness_profile
from fcpso.fairness import (
    ParameterScheme,
    monte_carlo_activation,
    solve_fair_phi2,
    unfairness,
    unfairness_restricted,
)
from fcpso.indicators import additive_epsilon, hypervolume, igd, spacing
from fcpso.io import write_comparison_csv, write_profile_csv
from fcpso.mutation import MutationConfig
from fcpso.optimizer import RunConfig
from fcpso.swarm import DynamicsConfig

WORKERS = 2
SEEDS = list(range(1, 21))
LN43 = math.log(4.0 / 3.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


def batch(problem_id: str, variant: str, indicators=("hv",)):
    cfg = RunConfig(
        dynamics=DynamicsConfig(variant=variant, swarm_size=100),
        mutation=MutationConfig(),
        max_evaluations=25_000,
        archive_capacity=100,
    )
    t0 = time.perf_counter()
    cells = _run_cells([problem_id], {variant: cfg}, len(SEEDS), SEEDS[0], tuple(indicators), WORKERS,
                       hv_target_fraction=0.95)
    return cells[(problem_id, variant)], time.perf_counter() - t0


@pytest.fixture(scope="session")
def zdt_hv_batches():
    out = {}
    for problem in ("zdt1", "zdt2"):
        for variant in ("smpso", "fcpso"):
            out[(problem, variant)] = batch(problem, variant)
    return out


@pytest.fixture(scope="session")
def zdt1_em_batch():
    return batch("zdt1", "em-smpso")


@pytest.fixture(scope="session")
def profile_points():
    # grid spans the open-left interval (-0.45, 0.42]
    grid = [-0.44, -0.3, -0.15, -0.05, 0.05, 0.15, 0.25, 0.32, 0.38, 0.42]
    points, notices = unfairness_profile(
        ["zdt1", "zdt3", "zdt4"], grid, repetitions=5, base_seed=1,
        max_evaluations=25_000, swarm_size=100, workers=WORKERS,
    )
    assert not notices
    return points


def test_c01_fairness_closed_forms():
    t0 = time.perf_counter()
    mu = unfairness(ParameterScheme(3, 5, 0, 1))
    closed_ok = abs(mu - (1.0 - 2.0 * LN43)) <= 1e-12
    mc = monte_carlo_activation(ParameterScheme(3, 5, 0, 1), 10**6, seed=42)
    mc_ok = abs(mc.p_activation - (mu + 0.5)) <= 0.002
    elapsed = time.perf_counter() - t0
    ok = closed_ok and mc_ok and elapsed < 1.0
    report("C1 closed-form unfairness vs monte carlo", ok,
           f"mu={mu:.12f} mc={mc.p_activation:.5f} t={elapsed:.2f}s")
    assert closed_ok and mc_ok
    assert elapsed < 1.0


def test_c02_fair_scheme_root():
    t0 = time.perf_counter()
    phi2 = solve_fair_phi2(2.0)
    residual = abs(unfairness(ParameterScheme(2.0, phi2, 0.0, 1.0)))
    elapsed = time.perf_counter() - t0
    in_range = 3.4667 <= phi2 <= 3.4677
    ok = in_range and residual <= 1e-6 and elapsed < 1.0
    report("C2 fair phi2 root", ok, f"phi2={phi2:.6f} |mu|={residual:.2e} t={elapsed:.2f}s")
    assert in_range
    assert residual <= 1e-6
    assert elapsed < 1.0


def test_c03_restricted_momentum_impossibility():
    grid = np.linspace(1e-6, 1.0 - 1e-9, 1000)
    values = np.array([unfairness_restricted(float(e)) for e in grid])
    positive = bool(np.all(values > 0.0))
    increasing = bool(np.all(np.diff(values) > 0.0))
    near_zero = unfairness_restricted(1e-6) < 1e-5
    ok = positive and increasing and near_zero
    report("C3 restricted-momentum impossibility", ok,
           f"min={values.min():.2e} mu(1e-6)={unfairness_restricted(1e-6):.2e}")
    assert positive and increasing and near_zero


def test_c04_constriction_consistency():
    grid = np.linspace(6.0 / 1000.0, 6.0, 1000)
    reduction = all(chi_momentum(float(p), 0.0) == chi_vanilla(float(p)) for p in grid)
    rng = np.random.default_rng(99)
    checked, bounded = 0, True
    while checked < 10_000:
        phi = float(rng.uniform(1e-3, 6.0))
        beta = float(rng.uniform(0.0, 1.0 - 1e-12))
        if not activation_event(phi, beta):
            continue
        if abs(chi_momentum(phi, beta)) * lambda_max(phi, beta) > 1.0 + 1e-12:
            bounded = False
            break
        checked += 1
    ok = reduction and bounded
    report("C4 constriction consistency and stability", ok, f"{checked} active draws")
    assert reduction and bounded


def test_c05_zdt_hypervolume_reproduction(zdt_hv_batches):
    floors = {"zdt1": 3.62, "zdt2": 3.29}
    all_ok = True
    details = []
    for (problem, variant), (metrics, wall) in sorted(zdt_hv_batches.items()):
        med = median([m["hv"] for m in metrics])
        ok = med >= floors[problem] and wall < 60.0
        all_ok &= ok
        details.append(f"{problem}/{variant}: median={med:.4f} wall={wall:.0f}s")
    report("C5 ZDT hypervolume reproduction", all_ok, "; ".join(details))
    for (problem, variant), (metrics, wall) in zdt_hv_batches.items():
        assert median([m["hv"] for m in metrics]) >= floors[problem], (problem, variant)
        assert wall < 60.0, (problem, variant)


def test_c06_naive_em_degradation(zdt_hv_batches, zdt1_em_batch):
    em_metrics, _ = zdt1_em_batch
    fc_metrics, _ = zdt_hv_batches[("zdt1", "fcpso")]
    em_hv = [m["hv"] for m in em_metrics]
    fc_hv = [m["hv"] for m in fc_metrics]
    p = mann_whitney_p(em_hv, fc_hv)
    hv_below = median(em_hv) < median(fc_hv)
    size_below = median([m["front_size"] for m in em_metrics]) < median(
        [m["front_size"] for m in fc_metrics]
    )
    ok = hv_below and p < 0.05 and size_below
    report("C6 naive EM-SMPSO degradation", ok,
           f"hv {median(em_hv):.3f} vs {median(fc_hv):.3f}, p={p:.2e}, "
           f"archive {median([m['front_size'] for m in em_metrics]):.0f} vs "
           f"{median([m['front_size'] for m in fc_metrics]):.0f}")
    assert hv_below and size_below
    assert p < 0.05


def test_c07_unfairness_profile_shape(profile_points):
    by_problem = {}
    for pt in profile_points:
        by_problem.setdefault(pt.problem, []).append(pt)
    failures = []
    for problem, pts in by_problem.items():
        pts = sorted(pts, key=lambda p: p.mu)
        for pt in pts:
            if pt.mu < 0 and pt.normalized_hv < 0.995:
                failures.append(f"under-constricted {problem} mu={pt.mu:+.2f}: "
                                f"{pt.normalized_hv:.3f} < 0.995")
            if pt.mu >= 0.4 and pt.normalized_hv > 0.9:
                failures.append(f"over-constricted {problem} mu={pt.mu:+.2f}: "
                                f"{pt.normalized_hv:.3f} > 0.9")
        tail = [(p.mu, p.normalized_hv) for p in pts if p.mu > 0.1]
        rho = st.spearmanr([t[0] for t in tail], [t[1] for t in tail]).statistic
        if not rho < 0:
            failures.append(f"trend {problem} beyond mu = 0.1: spearman rho {rho:.3f} is not < 0")
    report("C7 unfairness profile shape", not failures,
           "; ".join(f"{p}: " + ",".join(f"{pt.normalized_hv:.3f}" for pt in sorted(v, key=lambda q: q.mu))
                     for p, v in sorted(by_problem.items())))
    assert not failures, "; ".join(failures)


def test_c08_indicator_oracles(rng):
    # sweep vs slicer via constant-axis lift
    sweep_vs_slicer = True
    for _ in range(100):
        front = rng.random((12, 2))
        lifted = np.column_stack([front, np.full(len(front), 0.5)])
        hv2 = hypervolume(front, np.array([1.5, 1.5]))
        hv3 = hypervolume(lifted, np.array([1.5, 1.5, 1.5]))
        if abs(hv2 - hv3) > 1e-9:
            sweep_vs_slicer = False
            break

    mc_ok = True
    for k in (3, 4, 5):
        front = rng.random((20, k))
        ref = np.full(k, 1.1)
        exact = hypervolume(front, ref)
        lo = front.min(axis=0)
        vol = float(np.prod(ref - lo))
        pts = np.random.default_rng(k).uniform(lo, ref, size=(10**6, k))
        dominated = np.zeros(len(pts), dtype=bool)
        for f in front:
            dominated |= np.all(pts >= f, axis=1)
        p = dominated.mean()
        estimate = p * vol
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / len(pts)) * vol
        if abs(exact - estimate) > 4.0 * sigma:
            mc_ok = False

    hand_ok = (
        hypervolume(np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 0.0]]), np.array([2.0, 2.0])) == 3.375
        and igd(np.array([[0.1, 1.0], [1.0, 0.1]]), np.array([[0.0, 1.0], [1.0, 0.0]])) == 0.1
        and additive_epsilon(np.array([[0.2, 1.2], [1.2, 0.2]]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        == pytest.approx(0.2, abs=1e-15)
        and spacing(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0]]))
        == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    )
    ok = sweep_vs_slicer and mc_ok and hand_ok
    report("C8 indicator oracles", ok)
    assert sweep_vs_slicer and mc_ok and hand_ok


def test_c09_fe_protocol_directional():
    results = {}
    for variant in ("smpso", "fcpso"):
        metrics, _ = batch("zdt1", variant, indicators=("fe",))
        finished = sum(1 for m in metrics if m["fe"] < 25_000)
        results[variant] = finished
    ok = all(v >= 18 for v in results.values())
    report("C9 95%-hypervolume protocol", ok,
           f"finished under budget: {results['smpso']}/20 smpso, {results['fcpso']}/20 fcpso")
    for variant, finished in results.items():
        assert finished >= 18, variant


def test_c10_five_objective_spot_check():
    igd_values = {}
    for variant in ("smpso", "fcpso"):
        metrics, wall = batch("dtlz1:5", variant, indicators=("igd",))
        igd_values[variant] = [m["igd"] for m in metrics]
        assert wall < 300.0
    p = mann_whitney_p(igd_values["smpso"], igd_values["fcpso"])
    fc_below = median(igd_values["fcpso"]) < median(igd_values["smpso"])
    ok = fc_below and p < 0.05
    report("C10 five-objective DTLZ1 spot check", ok,
           f"igd median fcpso={median(igd_values['fcpso']):.3f} "
           f"smpso={median(igd_values['smpso']):.3f} p={p:.3f}")
    assert fc_below, "FCPSO median IGD is not below SMPSO's"
    assert p < 0.05


def test_c11_determinism_byte_identical(tmp_path):
    from fcpso.cli import main as cli_main
    from fcpso.experiments import ExperimentSpec

    for sub in ("r1", "r2"):
        assert cli_main([
            "solve", "--problem", "zdt1", "--seed", "5", "--evaluations", "2000",
            "--out", str(tmp_path / sub),
        ]) == 0
    front_a = (tmp_path / "r1" / "zdt1-2" / "fcpso" / "5" / "front.csv").read_bytes()
    front_b = (tmp_path / "r2" / "zdt1-2" / "fcpso" / "5" / "front.csv").read_bytes()

    spec = ExperimentSpec(
        problems=("zdt1",), variants=("smpso", "fcpso"), repetitions=3,
        indicators=("hv",), base_seed=2, max_evaluations=600, swarm_size=20,
    )
    write_comparison_csv(tmp_path / "c1.csv", run_experiment(spec, workers=2))
    write_comparison_csv(tmp_path / "c2.csv", run_experiment(spec, workers=1))

    points1, _ = unfairness_profile(["zdt1"], [0.1], repetitions=2, base_seed=3,
                                    max_evaluations=400, swarm_size=20, workers=2)
    points2, _ = unfairness_profile(["zdt1"], [0.1], repetitions=2, base_seed=3,
                                    max_evaluations=400, swarm_size=20, workers=1)
    write_profile_csv(tmp_path / "p1.csv", points1)
    write_profile_csv(tmp_path / "p2.csv", points2)

    fronts_equal = front_a == front_b
    comparisons_equal = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    profiles_equal = (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()
    ok = fronts_equal and comparisons_equal and profiles_equal
    report("C11 byte-identical reruns", ok)
    assert fronts_equal and comparisons_equal and profiles_equal
