"""ZDT/DTLZ evaluators against literal single-formula transcriptions."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcpso
from fcpso.problems import get_problem
from fcpso.problems.dtlz import dtlz_dimension
from fcpso.problems.zdt import zdt1, zdt2, zdt3, zdt4, zdt6

# --- independent scalar references (plain math, no shared code) -------------


def ref_zdt(name, x):
    x = list(map(float, x))
    n = len(x)
    if name == "zdt6":
        f1 = 1.0 - math.exp(-4.0 * x[0]) * math.sin(6.0 * math.pi * x[0]) ** 6
    else:
        f1 = x[0]
    if name == "zdt4":
        g = 1.0 + 10.0 * (n - 1)
        for xi in x[1:]:
            g += xi * xi - 10.0 * math.cos(4.0 * math.pi * xi)
    elif name == "zdt6":
        g = 1.0 + 9.0 * (sum(x[1:]) / (n - 1)) ** 0.25
    else:
        g = 1.0 + 9.0 * sum(x[1:]) / (n - 1)
    if name in ("zdt1", "zdt4"):
        h = 1.0 - math.sqrt(f1 / g)
    elif name in ("zdt2", "zdt6"):
        h = 1.0 - (f1 / g) ** 2
    else:
        h = 1.0 - math.sqrt(f1 / g) - (f1 / g) * math.sin(10.0 * math.pi * f1)
    return [f1, g * h]


def ref_dtlz(index, m, x):
    x = list(map(float, x))
    pos, tail = x[: m - 1], x[m - 1 :]
    if index in (1, 3):
        g = 100.0 * (
            len(tail)
            + sum((t - 0.5) ** 2 - math.cos(20.0 * math.pi * (t - 0.5)) for t in tail)
        )
    elif index in (2, 4, 5):
        g = sum((t - 0.5) ** 2 for t in tail)
    elif index == 6:
        g = sum(t**0.1 for t in tail)
    else:
        g = 1.0 + 9.0 * sum(tail) / len(tail)

    if index == 1:
        fs = []
        for i in range(1, m + 1):
            v = 0.5 * (1.0 + g)
            for p in pos[: m - i]:
                v *= p
            if i > 1:
                v *= 1.0 - pos[m - i]
            fs.append(v)
        return fs
    if index == 7:
        fs = pos[:]
        h = m - sum(f / (1.0 + g) * (1.0 + math.sin(3.0 * math.pi * f)) for f in pos)
        fs.append((1.0 + g) * h)
        return fs

    if index in (2, 3):
        theta = [p * math.pi / 2.0 for p in pos]
    elif index == 4:
        theta = [p**100.0 * math.pi / 2.0 for p in pos]
    else:
        theta = [pos[0] * math.pi / 2.0] + [
            math.pi / (4.0 * (1.0 + g)) * (1.0 + 2.0 * g * p) for p in pos[1:]
        ]
    fs = []
    for i in range(1, m + 1):
        v = 1.0 + g
        for t in theta[: m - i]:
            v *= math.cos(t)
        if i > 1:
            v *= math.sin(theta[m - i])
        fs.append(v)
    return fs


# --- ZDT ---------------------------------------------------------------------


class TestZdtValues:
    def test_zdt1_origin(self):
        np.testing.assert_allclose(zdt1(np.zeros(30)), [0.0, 1.0])

    def test_zdt1_half(self):
        x = np.zeros(30)
        x[0] = 0.5
        np.testing.assert_allclose(zdt1(x), [0.5, 1.0 - math.sqrt(0.5)], atol=1e-15)

    def test_zdt2_front_identity(self):
        for f1 in np.linspace(0.0, 1.0, 25):
            x = np.zeros(30)
            x[0] = f1
            f = zdt2(x)
            assert f[1] == pytest.approx(1.0 - f1**2, abs=1e-9)

    def test_zdt6_corner(self):
        f = zdt6(np.zeros(10))
        assert f[0] == pytest.approx(1.0)
        assert f[1] == pytest.approx(0.0)

    @pytest.mark.parametrize("name,fn,n", [
        ("zdt1", zdt1, 30), ("zdt2", zdt2, 30), ("zdt3", zdt3, 30),
        ("zdt4", zdt4, 10), ("zdt6", zdt6, 10),
    ])
    def test_against_reference(self, name, fn, n, rng):
        for _ in range(100):
            x = rng.random(n)
            if name == "zdt4":
                x = np.concatenate([[x[0]], x[1:] * 10.0 - 5.0])
            np.testing.assert_allclose(fn(x), ref_zdt(name, x), rtol=1e-12, atol=1e-12)


class TestZdtInstances:
    def test_dimensions_and_bounds(self):
        p = get_problem("zdt1")
        assert (p.n_var, p.n_obj) == (30, 2)
        assert np.all(p.bounds.lower == 0.0) and np.all(p.bounds.upper == 1.0)
        p4 = get_problem("zdt4")
        assert p4.n_var == 10
        assert p4.bounds.lower[0] == 0.0 and p4.bounds.upper[0] == 1.0
        assert np.all(p4.bounds.lower[1:] == -5.0) and np.all(p4.bounds.upper[1:] == 5.0)

    def test_out_of_bounds_rejected(self):
        p = get_problem("zdt1")
        bad = np.zeros(30)
        bad[3] = 1.5
        with pytest.raises(ValueError):
            p.evaluate(bad)

    @pytest.mark.parametrize("problem_id", ["zdt1", "dtlz2", "wfg4"])
    def test_nan_input_rejected_as_out_of_bounds(self, problem_id):
        # a NaN compares False with both bounds; it must not reach the evaluator
        p = get_problem(problem_id)
        bad = p.bounds.lower.copy()
        bad[1] = np.nan
        with pytest.raises(ValueError, match="outside box bounds"):
            p.evaluate(bad)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            get_problem("zdt1").evaluate(np.zeros(29))

    def test_objective_count_fixed(self):
        with pytest.raises(ValueError):
            get_problem("zdt1", n_obj=3)

    def test_reference_hv_constants(self):
        assert get_problem("zdt1").reference_hv == pytest.approx(11.0 / 3.0)
        assert get_problem("zdt2").reference_hv == pytest.approx(10.0 / 3.0)
        assert get_problem("zdt4").reference_hv == pytest.approx(11.0 / 3.0)


# --- DTLZ ---------------------------------------------------------------------


def evaluate_dtlz(index, m, x):
    """DTLZ<index> with m objectives at x, through the checked instance."""
    return get_problem(f"dtlz{index}", m).evaluate(x)


class TestDtlzValues:
    def test_dtlz1_plateau_point(self):
        x = np.full(7, 0.5)
        np.testing.assert_allclose(evaluate_dtlz(1, 3, x), [0.125, 0.125, 0.25], atol=1e-12)

    def test_dtlz1_simplex_identity(self, rng):
        for _ in range(50):
            x = np.concatenate([rng.random(2), np.full(5, 0.5)])
            assert evaluate_dtlz(1, 3, x).sum() == pytest.approx(0.5, abs=1e-9)

    def test_dtlz2_sphere_identity(self, rng):
        for m in (3, 5, 10):
            for _ in range(30):
                x = np.concatenate([rng.random(m - 1), np.full(10, 0.5)])
                f = evaluate_dtlz(2, m, x)
                assert np.sum(f**2) == pytest.approx(1.0, abs=1e-9)

    def test_dtlz2_corner(self):
        x = np.concatenate([np.zeros(2), np.full(10, 0.5)])
        np.testing.assert_allclose(evaluate_dtlz(2, 3, x), [1.0, 0.0, 0.0], atol=1e-12)

    def test_dtlz4_sphere_identity(self, rng):
        for _ in range(30):
            x = np.concatenate([rng.random(2), np.full(10, 0.5)])
            f = evaluate_dtlz(4, 3, x)
            assert np.sum(f**2) == pytest.approx(1.0, abs=1e-9)

    def test_dtlz7_hand_points(self):
        # position 0, distance 0: g = 1, h = m, f_m = 2m
        f = evaluate_dtlz(7, 3, np.zeros(22))
        np.testing.assert_allclose(f, [0.0, 0.0, 6.0], atol=1e-12)
        x = np.concatenate([np.ones(2), np.zeros(20)])
        np.testing.assert_allclose(evaluate_dtlz(7, 3, x), [1.0, 1.0, 4.0], atol=1e-12)

    @pytest.mark.parametrize("index", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("m", [2, 3, 5, 10])
    def test_against_reference(self, index, m, rng):
        n = dtlz_dimension(index, m)
        for _ in range(50):
            x = rng.random(n)
            np.testing.assert_allclose(
                evaluate_dtlz(index, m, x), ref_dtlz(index, m, x), rtol=1e-11, atol=1e-11
            )

    def test_bad_index(self):
        with pytest.raises(ValueError):
            get_problem("dtlz8", 3)


class TestDtlzInstances:
    def test_dimension_convention(self):
        assert get_problem("dtlz1", 3).n_var == 7
        assert get_problem("dtlz2", 3).n_var == 12
        assert get_problem("dtlz7", 3).n_var == 22
        assert get_problem("dtlz1", 5).n_var == 9

    def test_reference_points(self):
        np.testing.assert_array_equal(get_problem("dtlz2", 3).hv_reference_point, [2.0, 2.0, 2.0])
        # DTLZ7's f_m reaches 2m on its front (x = 0), so its point sits at 2m + 1
        np.testing.assert_array_equal(get_problem("dtlz7", 2).hv_reference_point, [2.0, 5.0])
        np.testing.assert_array_equal(get_problem("dtlz7", 5).hv_reference_point, [2.0] * 4 + [11.0])

    def test_evaluator_purity(self, rng):
        p = get_problem("dtlz3", 3)
        x = rng.random(p.n_var)
        np.testing.assert_array_equal(p.evaluate(x), p.evaluate(x))


# Each call runs in its own interpreter with a timeout, so a call that
# never returns (as the simplex-lattice search once did for one
# objective) fails the test instead of hanging the suite.
_CALL = """
from fcpso.problems import fronts, get_problem
try:
    {call}
except ValueError as exc:
    print("ValueError:", exc)
else:
    print("returned")
"""


def _outcome(call: str) -> str:
    src = str(Path(fcpso.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _CALL.format(call=call)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestObjectiveAndVariableCounts:
    @pytest.mark.parametrize("call, named", [
        ('get_problem("dtlz2", 1)', "dtlz2"),
        ('get_problem("wfg4", 1)', "wfg4"),
        ('get_problem("dtlz1", 0)', "dtlz1"),  # 0 is a count, not "the default"
        ('get_problem("wfg4", 0)', "wfg4"),
        ('fronts.dtlz_front(2, 1)', "2 objectives"),
        ('fronts._lattice_h(1, 1000)', "2 objectives"),
        ('get_problem("zdt1", 2.0)', "n_obj must be an integer, got 2.0"),
        ('get_problem("dtlz2", 3.0)', "n_obj must be an integer, got 3.0"),
        ('get_problem("dtlz2", 3.5)', "n_obj must be an integer, got 3.5"),
        ('get_problem("wfg4", 5.0)', "n_obj must be an integer, got 5.0"),
    ])
    def test_rejected_with_a_named_error(self, call, named):
        outcome = _outcome(call)
        assert outcome.startswith("ValueError:") and named in outcome

    def test_two_objectives_build(self):
        for name in ("dtlz1", "dtlz2", "wfg4"):
            p = get_problem(name, 2)
            assert p.n_obj == 2 and p.evaluate(p.bounds.lower).shape == (2,)
