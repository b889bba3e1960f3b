import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devlat import (
    CVaRJump,
    Custom,
    InfConv,
    JumpMeasure,
    NormCD,
    Scaled,
    Variance,
    check_driver,
    cvar_nu,
    driver_from_dict,
    driver_to_dict,
    eval_driver,
    infconv_value,
    probe_count,
    subgradient,
    var_nu,
)
import devlat.drivers as drivers

from oracles import cvar_by_segments, finite_difference_gradient, var_by_scan

NU = JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7))
EMPTY = JumpMeasure.empty()


def test_variance_eval():
    assert eval_driver(Variance(2.0), 0.0, [1.0], [], EMPTY) == 2.0


def test_norm_cd_eval():
    nu1 = JumpMeasure(((1.0,),), (1.0,))
    v = eval_driver(NormCD(1.0, 2.0), 0.0, [3.0, 4.0], [3.0], nu1)
    assert v == pytest.approx(11.0, abs=1e-12)


def test_all_drivers_vanish_at_origin():
    for spec in (Variance(1.3), NormCD(1.0, 2.0), CVaRJump(0.5),
                 Scaled(3.0, Variance(1.0)),
                 InfConv(Variance(1.0), Variance(2.0))):
        assert eval_driver(spec, 0.0, [0.0], [0.0, 0.0], NU) == 0.0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_driver(Variance(1.0), 0.0, [1.0], [1.0], EMPTY)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Variance(0.0)
    with pytest.raises(ValueError):
        NormCD(0.0, 0.0)
    with pytest.raises(ValueError):
        Scaled(-1.0, Variance(1.0))
    with pytest.raises(ValueError):
        eval_driver(CVaRJump(1.5), 0.0, [0.0], [0.0, 0.0], NU)


def test_var_nu_zero_integrand():
    for a in (0.1, 0.5, 0.9):
        assert var_nu(a, [0.0, 0.0], NU) == 0.0


def test_var_nu_two_atoms():
    assert var_nu(0.2, [-1.0, 2.0], NU) == 1.0
    assert var_nu(0.4, [-1.0, 2.0], NU) == -2.0


def test_cvar_nu_two_atoms():
    want = 2.0 * (0.3 * 1.0 + 0.2 * (-2.0))
    assert cvar_nu(0.5, [-1.0, 2.0], NU) == pytest.approx(want, abs=1e-15)
    assert cvar_nu(0.5, [-1.0, 2.0], NU) == pytest.approx(-0.2, abs=1e-12)


def test_cvar_nu_single_atom():
    nu1 = JumpMeasure(((1.0,),), (1.0,))
    assert cvar_nu(0.5, [5.0], nu1) == -5.0
    assert var_nu(0.5, [5.0], nu1) == -5.0


def test_cvar_nu_zero_integrand():
    assert cvar_nu(0.3, [0.0, 0.0], NU) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_quantiles_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    marks = tuple((float(i + 1),) for i in range(m))
    masses = rng.uniform(0.1, 1.0, size=m)
    nu = JumpMeasure(marks, tuple(masses))
    ht = np.round(rng.normal(scale=2.0, size=m), 3)
    a = float(rng.uniform(0.05, 0.95)) * nu.total_intensity
    assert var_nu(a, ht, nu) == var_by_scan(a, ht, masses)
    assert cvar_nu(a, ht, nu) == pytest.approx(
        cvar_by_segments(a, ht, masses), rel=1e-12, abs=1e-12)


def test_variance_subgradient_values():
    nu1 = JumpMeasure(((1.0,),), (0.5,))
    np.testing.assert_array_equal(
        subgradient(Variance(1.0), 0.0, [0.0], [0.0], nu1), [0.0, 0.0])
    got = subgradient(Variance(1.0), 0.0, [2.0], [4.0], nu1)
    np.testing.assert_allclose(got, [4.0, 4.0], atol=1e-12)

    def f(x):
        return eval_driver(Variance(1.0), 0.0, x[:1], x[1:], nu1)

    fd = finite_difference_gradient(f, np.array([2.0, 4.0]))
    np.testing.assert_allclose(got, fd, atol=1e-6)


def test_norm_subgradient_is_unit_direction():
    got = subgradient(NormCD(1.0, 0.0), 0.0, [3.0, 4.0], [], EMPTY)
    np.testing.assert_allclose(got, [0.6, 0.8], atol=1e-12)

    def f(x):
        return eval_driver(NormCD(1.0, 0.0), 0.0, x, [], EMPTY)

    fd = finite_difference_gradient(f, np.array([3.0, 4.0]))
    np.testing.assert_allclose(got, fd, atol=1e-6)


def test_norm_subgradient_zero_at_kink():
    got = subgradient(NormCD(1.0, 2.0), 0.0, [0.0, 0.0], [0.0, 0.0], NU)
    np.testing.assert_array_equal(got, 0.0)


def test_scaled_subgradient_uses_inner_point():
    base = Variance(1.0)
    spec = Scaled(2.0, base)
    got = subgradient(spec, 0.0, [2.0], [1.0, -1.0], NU)
    want = subgradient(base, 0.0, [1.0], [0.5, -0.5], NU)
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_cvar_subgradient_inequality(rng):
    spec = CVaRJump(0.5)
    for _ in range(200):
        x = rng.normal(scale=2.0, size=2)
        y = rng.normal(scale=2.0, size=2)
        gx = eval_driver(spec, 0.0, [0.0], x, NU)
        gy = eval_driver(spec, 0.0, [0.0], y, NU)
        s = subgradient(spec, 0.0, [0.0], x, NU)[1:]
        assert gy >= gx + float(s @ (y - x)) - 1e-10


def test_positive_homogeneity_of_norm_driver(rng):
    spec = NormCD(1.0, 2.0)
    for _ in range(50):
        h = rng.normal(size=2)
        ht = rng.normal(size=2)
        base = eval_driver(spec, 0.0, h, ht, NU)
        for lam in (0.0, 0.5, 2.0, 7.0):
            got = eval_driver(spec, 0.0, lam * h, lam * ht, NU)
            assert got == pytest.approx(lam * base, rel=1e-12, abs=1e-12)


def test_quadratic_scaling_of_variance(rng):
    spec = Variance(1.7)
    for _ in range(50):
        h = rng.normal(size=2)
        ht = rng.normal(size=2)
        base = eval_driver(spec, 0.0, h, ht, NU)
        for lam in (0.5, 2.0, 7.0):
            got = eval_driver(spec, 0.0, lam * h, lam * ht, NU)
            assert got == pytest.approx(lam * lam * base, rel=1e-12)


def test_scaled_identity(rng):
    base = NormCD(1.0, 2.0)
    spec = Scaled(3.0, base)
    for _ in range(50):
        h = rng.normal(size=2)
        ht = rng.normal(size=2)
        want = 3.0 * eval_driver(base, 0.0, h / 3.0, ht / 3.0, NU)
        assert eval_driver(spec, 0.0, h, ht, NU) == pytest.approx(want, rel=1e-12)


def test_subgradient_consistency_sampled(rng):
    specs = [Variance(1.0), NormCD(1.0, 1.0), Scaled(2.0, NormCD(1.0, 1.0))]
    for spec in specs:
        for _ in range(100):
            x = rng.normal(scale=2.0, size=4)
            y = rng.normal(scale=2.0, size=4)
            gx = eval_driver(spec, 0.0, x[:2], x[2:], NU)
            gy = eval_driver(spec, 0.0, y[:2], y[2:], NU)
            s = subgradient(spec, 0.0, x[:2], x[2:], NU)
            assert gy >= gx + float(s @ (y - x)) - 1e-8


def test_check_driver_passes_valid_drivers():
    for spec in (Variance(1.0), NormCD(1.0, 1.0)):
        report = check_driver(spec, NU, sample_count=150, seed=3, d=2)
        assert report.all_passed()
        assert report.samples_used >= 150


def test_check_driver_flags_cvar_negative():
    report = check_driver(CVaRJump(0.5), NU, sample_count=100, seed=1, d=1)
    assert not report.nonnegativity.passed
    point, value = report.nonnegativity.witness
    # the witness reproduces the failure when re-evaluated
    assert eval_driver(CVaRJump(0.5), 0.0, point[0], point[1], NU) == value
    assert value < 0


def test_check_driver_flags_concavity():
    concave = Custom(lambda t, h, ht, nu: float(np.sqrt(np.abs(h).sum() + np.abs(ht).sum())))
    report = check_driver(concave, NU, sample_count=150, seed=5, d=1)
    assert not report.convexity.passed
    x, y, lhs, rhs = report.convexity.witness
    assert lhs > rhs + 1e-10


def test_custom_without_subgradient():
    spec = Custom(lambda t, h, ht, nu: float(h @ h))
    with pytest.raises(ValueError):
        subgradient(spec, 0.0, [1.0], [], EMPTY)


def test_missing_subgradient_oracle_is_a_vacuous_pass():
    spec = Custom(lambda t, h, ht, nu: float(h @ h + ht @ ht))
    report = check_driver(spec, NU, sample_count=20, seed=0, d=1)
    check = report.subgradient_consistency
    assert check.passed and check.vacuous and check.detail.startswith("skipped")
    assert not report.convexity.vacuous
    assert report.all_passed()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 2), st.integers(1, 3), st.integers(1, 20),
       st.integers(0, 2**32 - 1))
def test_probe_count_is_the_probe_block_laid_out(d, m, width, samples, seed):
    """``probe_count`` is rows x columns of ``_probe_points``'s block, and
    both refuse a block of the origin alone."""
    nu = JumpMeasure(tuple((j + 1.0,) * width for j in range(m)), (0.5,) * m)
    rng = np.random.default_rng(seed)
    if d == 0 and m == 0:
        for count in (lambda: probe_count(nu, d, samples),
                      lambda: drivers._probe_points(nu, d, samples, rng)):
            with pytest.raises(ValueError, match="probes only the origin"):
                count()
        return
    H, Ht = drivers._probe_points(nu, d, samples, rng)
    assert (H.shape[1], Ht.shape[1]) == (d, m) and len(H) == len(Ht)
    assert probe_count(nu, d, samples) == len(H) * (d + m)


@pytest.mark.parametrize("d, samples, message", [
    (-1, 5, "'d' must be >= 0, got -1"),
    (1, 0, "'samples' must be >= 1, got 0"),
])
def test_probe_count_refuses_a_malformed_block(d, samples, message):
    with pytest.raises(ValueError, match=message):
        probe_count(NU, d, samples)
    with pytest.raises(ValueError, match=message):
        check_driver(Variance(1.0), NU, sample_count=samples, d=d)


@pytest.mark.parametrize("spec", [
    {"kind": "variance"},
    {"kind": "variance", "alpha": None},
    {"kind": "variance", "alpha": float("nan")},
    {"kind": "norm_cd", "c": "1", "d": 1.0},
    {"kind": "cvar_jump", "a": True},
    {"kind": "scaled", "gamma": 2.0},
    {"kind": "infconv", "a": {"kind": "variance", "alpha": 1.0}},
    {"kind": ["variance"], "alpha": 1.0},
    {"kind": {"variance": 1}, "alpha": 1.0},
    {"kind": "variance", "alpha": 10 ** 400},
    {"kind": "scaled", "gamma": -10 ** 400, "base": {"kind": "variance", "alpha": 1.0}},
])
def test_malformed_driver_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        driver_from_dict(spec)


def test_driver_json_round_trip():
    specs = [
        Variance(1.5),
        NormCD(1.0, 2.0),
        CVaRJump(0.5),
        Scaled(3.0, NormCD(1.0, 2.0)),
        InfConv(Variance(1.0), Scaled(2.0, Variance(1.0))),
    ]
    for spec in specs:
        assert driver_from_dict(driver_to_dict(spec)) == spec
    with pytest.raises(ValueError):
        driver_from_dict({"kind": "unknown"})
    with pytest.raises(ValueError):
        driver_to_dict(Custom(lambda *a: 0.0))


@pytest.mark.parametrize("cls", [Variance, NormCD, CVaRJump, Scaled, InfConv])
def test_built_in_kinds_take_one_point_as_one_batch_row(cls):
    """Each built-in kind writes its formula once, in its batch methods; its
    scalar names are the shared one-row calls, bound in its own class body."""
    assert cls.__dict__["value"] is drivers._one_row_value
    assert cls.__dict__["subgradient"] is drivers._one_row_subgradient


def test_only_custom_defines_a_scalar_driver_method():
    """No class in ``drivers.py`` but ``Custom`` writes a ``value`` or
    ``subgradient`` body; ``Custom`` wraps the user's per-point oracles."""
    tree = ast.parse(Path(drivers.__file__).read_text())
    found = {(cls.name, fn.name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             and fn.name in ("value", "subgradient")}
    assert found == {("Custom", "value"), ("Custom", "subgradient")}


@pytest.mark.parametrize("call", [
    lambda ht: eval_driver(Variance(1.0), 0.0, [0.5], ht, NU),
    lambda ht: subgradient(Variance(1.0), 0.0, [0.5], ht, NU),
    lambda ht: var_nu(0.5, ht, NU),
    lambda ht: cvar_nu(0.5, ht, NU),
    lambda ht: infconv_value(Variance(1.0), NormCD(1.0, 1.0), 0.0, [0.5], ht, NU),
], ids=["eval_driver", "subgradient", "var_nu", "cvar_nu", "infconv_value"])
def test_one_point_calls_share_one_jump_width_check(call):
    for width in (1, 3):
        with pytest.raises(ValueError,
                           match=f"^htilde has {width} entries but the jump measure has 2 marks$"):
            call(np.zeros(width))
    with pytest.raises(ValueError, match="^expected a vector$"):
        call(np.zeros((2, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: CVaRJump(0.0), "a must be positive"),
    (lambda: CVaRJump(0.4).value_batch(0.0, np.zeros((2, 1)), np.zeros((2, 3)), NU),
     "jump integrands must have shape (rows, 2)"),
    (lambda: eval_driver(Variance(1.0), 0.0, [[0.5, 1.0]], [0.0, 0.0], NU), "expected a vector"),
    (lambda: driver_from_dict({"kind": ["variance"]}), "unknown driver kind ['variance']"),
    (lambda: driver_from_dict({"kind": "norm_cd", "c": 1.0}),
     "norm_cd driver: 'd' must be a finite number"),
    (lambda: driver_from_dict({"kind": "norm_cd", "c": None, "d": None}),
     "norm_cd driver: 'c' must be a finite number"),
])
def test_driver_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_leaf_kinds_map_through_one_table():
    """``driver_to_dict`` and ``driver_from_dict`` read the leaf kinds' JSON
    fields from one table, in constructor order."""
    assert drivers._LEAF_KINDS == {"variance": (Variance, ("alpha",)),
                                   "norm_cd": (NormCD, ("c", "d")),
                                   "cvar_jump": (CVaRJump, ("a",))}
    assert list(driver_to_dict(NormCD(0.5, 2.0)).items()) == [("kind", "norm_cd"), ("c", 0.5),
                                                            ("d", 2.0)]
