import numpy as np
import pytest

from devlat import SolverConfig, minimize

from oracles import brute_force_min, grid_min_1d

CFG = SolverConfig()


def _quadratic(center, weights):
    center = np.asarray(center, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def f(x):
        return float(weights @ (x - center) ** 2)

    def g(x):
        return 2.0 * weights * (x - center)

    return f, g


def test_scalar_quadratic():
    res = minimize(*_quadratic([3.0], [1.0]), np.zeros(1), CFG)
    assert res.argmin[0] == pytest.approx(3.0, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.converged


def test_two_kinks():
    def f(x):
        return abs(x[0] - 2.0) + abs(x[0])

    def g(x):
        return np.array([np.sign(x[0] - 2.0) + np.sign(x[0])])

    res = minimize(f, g, np.array([5.0]), CFG)
    _, want = grid_min_1d(lambda v: abs(v - 2.0) + abs(v), -1.0, 3.0, 1e-4)
    assert res.value == pytest.approx(want, abs=1e-6)
    assert -1e-8 <= res.argmin[0] <= 2.0 + 1e-8


def test_weighted_l1():
    def f(x):
        return abs(x[0]) + 2.0 * abs(x[1])

    def g(x):
        return np.array([np.sign(x[0]), 2.0 * np.sign(x[1])])

    res = minimize(f, g, np.array([1.0, 1.0]), CFG)
    assert res.value == pytest.approx(0.0, abs=1e-6)
    np.testing.assert_allclose(res.argmin, 0.0, atol=1e-6)


def test_random_strongly_convex_quadratics(rng):
    for _ in range(100):
        p = int(rng.integers(1, 6))
        center = rng.normal(scale=2.0, size=p)
        weights = rng.uniform(0.4, 2.5, size=p)
        init = rng.normal(scale=2.0, size=p)
        res = minimize(*_quadratic(center, weights), init, CFG)
        np.testing.assert_allclose(res.argmin, center, atol=1e-6)


def test_result_value_is_evaluation_at_argmin(rng):
    f, g = _quadratic([1.0, -2.0], [1.0, 3.0])
    res = minimize(f, g, rng.normal(size=2), CFG)
    assert res.value == f(res.argmin)


def test_never_worse_than_brute_force():
    f, g = _quadratic([0.4], [1.3])
    res = minimize(f, g, np.array([2.0]), CFG)
    _, bf = brute_force_min(lambda x: f(np.atleast_1d(x)),
                            [(-2.0, 2.0)], 1e-3)
    assert res.value <= bf + CFG.tolerance


def test_max_iterations_exhaustion():
    cfg = SolverConfig(max_iterations=3, stall_window=10, polish_iterations=0)

    def f(x):
        return abs(x[0])

    def g(x):
        return np.array([np.sign(x[0]) if x[0] != 0 else 0.0])

    res = minimize(f, g, np.array([10.0]), cfg)
    assert not res.converged
    assert res.iterations == 3


def test_brute_force_examples():
    x, v = brute_force_min(lambda p: abs(p[0]), [(-1.0, 1.0)], 0.5)
    assert v == 0.0
    assert x[0] == 0.0
    with pytest.raises(ValueError):
        brute_force_min(lambda p: 0.0, [(1.0, -1.0)], 0.1)
    with pytest.raises(ValueError):
        brute_force_min(lambda p: 0.0, [], 0.1)
    with pytest.raises(ValueError):
        brute_force_min(lambda p: 0.0, [(0.0, 1.0)] * 3, 1e-4)


def test_best_value_monotone_under_tracking(rng):
    # the reported value never exceeds the initial value
    for _ in range(20):
        center = rng.normal(size=2)
        f, g = _quadratic(center, [1.0, 1.0])
        init = rng.normal(size=2)
        res = minimize(f, g, init, CFG)
        assert res.value <= f(init) + 1e-15


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
