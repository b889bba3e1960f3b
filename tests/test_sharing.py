import dataclasses
import math

import numpy as np
import pytest

from devlat import (
    CVaRJump,
    Custom,
    InfConv,
    JumpMeasure,
    NoiseModel,
    NormCD,
    RandomVariable,
    Scaled,
    SharingProblem,
    SolverConfig,
    TimeGrid,
    Variance,
    assemble,
    build_lattice,
    check_driver,
    evaluate,
    infconv_split,
    infconv_value,
    represent,
    solve_sharing,
    terminal_brownian,
)
import devlat.sharing as sharing
from devlat.lattice import Lattice
from devlat.deviation import _accumulate
from devlat.representation import RepresentingPair
from devlat.sharing import certificate_gaps
from oracles import brute_force_min, certificate_gap_by_node, conditional_variance, \
    numeric_infconv_value, proportional_transfer, residual_check_reference, \
    solve_sharing_per_level

EMPTY = JumpMeasure.empty()
NU = JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7))


def _pair_from_steps(lat, h_steps, ht_steps=None):
    d, m = lat.noise.d, lat.noise.jumps.m
    H, Ht, res = [], [], []
    for i in range(lat.n_steps):
        nodes = lat.num_nodes(i)
        H.append(np.full((nodes, d), h_steps[i]))
        Ht.append(np.full((nodes, m), 0.0 if ht_steps is None else ht_steps[i]))
        res.append(np.zeros(nodes))
    return RepresentingPair(0.0, tuple(H), tuple(Ht), tuple(res))


def test_infconv_quadratic_closed_form_and_brute_force():
    value, (z, _) = infconv_value(Variance(1.0), Variance(1.0), 0.0, [2.0], [], EMPTY)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert z[0] == pytest.approx(1.0, abs=1e-12)
    _, bf = brute_force_min(
        lambda p: (2.0 - p[0]) ** 2 + p[0] ** 2, [(-4.0, 6.0)], 1e-4)
    assert value == pytest.approx(bf, abs=1e-3)


def test_infconv_norm_pair_goes_to_cheaper_agent():
    value, (z, _) = infconv_value(NormCD(2.0, 0.0), NormCD(1.0, 0.0), 0.0, [3.0], [], EMPTY)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert z[0] == pytest.approx(3.0, abs=1e-12)


def test_infconv_zero_point():
    value, (z, zt) = infconv_value(NormCD(1.0, 1.0), Variance(2.0), 0.0,
                                   [0.0], [0.0, 0.0], NU)
    assert value == 0.0
    np.testing.assert_array_equal(z, 0.0)
    np.testing.assert_array_equal(zt, 0.0)


def test_infconv_value_refuses_htilde_on_a_measure_without_marks():
    # the row is checked, not cut down to the measure's zero marks
    with pytest.raises(ValueError, match="htilde has 1 entries but the jump measure has 0"):
        infconv_value(Variance(1.0), Variance(1.0), 0.0, [1.0], [5.0], EMPTY)


def test_infconv_value_refuses_htilde_wider_than_the_marks():
    # refused before the radial split indexes the two intensities
    with pytest.raises(ValueError, match="htilde has 3 entries but the jump measure has 2"):
        infconv_value(Variance(1.0), NormCD(1.0, 1.0), 0.0, [1.0], [1.0, 2.0, 3.0], NU)


def test_infconv_numeric_matches_fast_path(rng):
    for _ in range(10):
        a_a, a_b = rng.uniform(0.5, 2.0, size=2)
        h = rng.normal(size=1)
        ht = rng.normal(size=2)
        fast, (zf, _) = infconv_value(Variance(a_a), Variance(a_b), 0.0, h, ht, NU)
        num, (zn, _) = numeric_infconv_value(Variance(a_a), Variance(a_b), 0.0, h, ht, NU)
        assert num == pytest.approx(fast, abs=1e-6)
        np.testing.assert_allclose(zn, zf, atol=1e-6)


def test_infconv_scaled_common_base_fast_path():
    spec_a = Scaled(1.0, NormCD(1.0, 1.0))
    spec_b = Scaled(3.0, NormCD(1.0, 1.0))
    h = np.array([2.0])
    ht = np.array([1.0, -1.0])
    value, (z, zt) = infconv_value(spec_a, spec_b, 0.0, h, ht, NU)
    np.testing.assert_allclose(z, 0.75 * h, atol=1e-14)
    np.testing.assert_allclose(zt, 0.75 * ht, atol=1e-14)
    # value equals (gamma_a + gamma_b) * g(x / (gamma_a + gamma_b))
    from devlat import eval_driver
    want = 4.0 * eval_driver(NormCD(1.0, 1.0), 0.0, h / 4.0, ht / 4.0, NU)
    assert value == pytest.approx(want, abs=1e-12)


def test_infconv_symmetry_under_swap(rng):
    for _ in range(5):
        h = rng.normal(size=2)
        va, _ = infconv_value(Variance(1.3), NormCD(1.0, 0.0), 0.0, h, [], EMPTY)
        vb, _ = infconv_value(NormCD(1.0, 0.0), Variance(1.3), 0.0, h, [], EMPTY)
        assert va == pytest.approx(vb, abs=1e-6)


def test_infconv_driver_is_valid(jump_lattice):
    spec = InfConv(Variance(1.0), Variance(2.0))
    report = check_driver(spec, NU, sample_count=80, seed=2, d=1)
    assert report.all_passed()
    spec2 = InfConv(NormCD(2.0, 1.0), NormCD(1.0, 2.0))
    report2 = check_driver(spec2, NU, sample_count=60, seed=4, d=1)
    assert report2.all_passed()


def test_the_share_row_layout_is_read_only_and_kept_per_lattice(rng):
    """The stacked rows ``solve_sharing`` reads (each row's time, each
    level's row bounds, its zero residuals) stay on each lattice, read-only;
    two lattices used in turn keep their own, equal to a fresh recomputation,
    and solve as a lattice built afresh does."""
    jumps = JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))
    shapes = [(TimeGrid((0.0, 0.1, 0.35, 1.0)), NoiseModel(1, jumps)),
              (TimeGrid.uniform(4, 1.0), NoiseModel.brownian(2))]
    lats = [build_lattice(*shape) for shape in shapes]
    for _ in range(2):
        for lat, shape in zip(lats, shapes):
            times, bounds, zeros = rows = lat._level_rows()
            assert lat._level_rows() is rows
            sizes = [lat.num_nodes(i) for i in range(lat.n_steps)]
            want = np.concatenate([np.full(k, lat.times[i]) for i, k in enumerate(sizes)])
            assert times.dtype == want.dtype and times.tobytes() == want.tobytes()
            ends = np.cumsum(sizes).tolist()
            assert bounds == tuple(zip([0, *ends[:-1]], ends))
            assert [z.dtype for z in zeros] == [np.dtype(float)] * len(sizes)
            assert [z.tobytes() for z in zeros] == [np.zeros(k).tobytes() for k in sizes]
            for a in (times, *zeros):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 1.0
            leaves = lat.num_nodes(lat.n_steps)
            prob = SharingProblem(RandomVariable(rng.normal(size=leaves), lat.n_steps),
                                  RandomVariable(rng.normal(size=leaves), lat.n_steps),
                                  Variance(1.0), NormCD(1.0, 2.0))
            got, fresh = solve_sharing(lat, prob), solve_sharing(Lattice(*shape), prob)
            for a, b in [(got.y_tilde_star.values, fresh.y_tilde_star.values),
                         *zip(got.argmin_H + got.argmin_Ht, fresh.argmin_H + fresh.argmin_Ht),
                         *zip(got.infconv_d.values, fresh.infconv_d.values)]:
                assert a.tobytes() == b.tobytes()


def test_solve_sharing_quadratic_halves_variance(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    prob = SharingProblem(x_a, x_b, Variance(1.0), Variance(1.0))
    sol = solve_sharing(binomial4, prob)
    assert sol.attained
    total = x_a + x_b
    # transfer-side position is the centred half of the total payoff
    centred = total.values - float(np.dot(
        binomial4.node_probabilities(4), total.values))
    np.testing.assert_allclose(sol.y_star.values, 0.5 * centred, atol=1e-10)
    var_total = conditional_variance(binomial4, total).at(0)[0]
    assert sol.infconv_d.d0 == pytest.approx(0.5 * var_total, rel=1e-10)
    # cross-check the accumulated process against the generic evaluator
    generic = evaluate(binomial4, InfConv(Variance(1.0), Variance(1.0)),
                       represent(binomial4, total))
    assert generic.d0 == pytest.approx(sol.infconv_d.d0, abs=1e-9)


@pytest.mark.parametrize("base", [Variance(0.8), NormCD(1.0, 1.0)])
def test_solve_sharing_proportional(base, jump_lattice, rng):
    # zero-residual payoffs keep the transfer identity exact on jump lattices
    x_a = assemble(jump_lattice, _pair_from_steps(
        jump_lattice, rng.uniform(0.5, 1.5, size=4), rng.uniform(-1.0, 1.0, size=4)))
    x_b = assemble(jump_lattice, _pair_from_steps(
        jump_lattice, rng.uniform(0.5, 1.5, size=4), rng.uniform(-1.0, 1.0, size=4)))
    prob = SharingProblem(x_a, x_b, Scaled(1.0, base), Scaled(3.0, base))
    sol = solve_sharing(jump_lattice, prob)
    assert sol.attained
    pair = sol.total_pair
    for i in range(4):
        np.testing.assert_allclose(sol.argmin_H[i], 0.75 * pair.H[i], atol=1e-6)
        np.testing.assert_allclose(sol.argmin_Ht[i], 0.75 * pair.Htilde[i], atol=1e-6)
    want = proportional_transfer(1.0, 3.0, x_a, x_b)
    got = sol.y_tilde_star.values - np.mean(sol.y_tilde_star.values)
    ref = want.values - np.mean(want.values)
    np.testing.assert_allclose(got, ref, atol=1e-6)


@pytest.mark.parametrize("lat_name, g_a, g_b", [
    ("binomial4", Variance(1.0), NormCD(1.0, 0.5)),
    ("jump_lattice", Scaled(1.0, Variance(0.8)), Scaled(3.0, Variance(0.8))),
    ("jump_lattice", NormCD(1.0, 1.0), InfConv(Variance(1.3), NormCD(1.0, 0.5))),
])
def test_standalone_terms_are_those_of_represent_and_evaluate(lat_name, g_a, g_b,
                                                              request, rng, monkeypatch):
    """The two payoffs' means and standalone deviations come from the
    residual-free pass; every figure of the solve keeps the bits it has when
    they come from ``represent`` and ``evaluate``."""
    lat = request.getfixturevalue(lat_name)
    n = lat.n_steps
    prob = SharingProblem(RandomVariable(rng.normal(size=lat.num_nodes(n)), n),
                          RandomVariable(rng.normal(size=lat.num_nodes(n)), n), g_a, g_b)
    got = solve_sharing(lat, prob)

    def by_represent(lat, driver, values, level):
        pair = represent(lat, RandomVariable(values, level))
        return (np.array([pair.mean]),), evaluate(lat, driver, pair).values

    monkeypatch.setattr(sharing, "_levels", by_represent)
    want = solve_sharing(lat, prob)
    assert got.d0_a == evaluate(lat, g_a, represent(lat, prob.x_a)).d0
    assert got.d0_b == evaluate(lat, g_b, represent(lat, prob.x_b)).d0
    for name in ("price", "du_a", "du_b", "d0_a", "d0_b", "max_residual", "certificate_gap"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.y_tilde_star.values.tobytes() == want.y_tilde_star.values.tobytes()


@pytest.mark.parametrize("shift_a, shift_b", [(0.0, 0.0), (0.37, -1.25), (-3.5, 2.0)])
@pytest.mark.parametrize("g_a, g_b", [
    (Scaled(1.0, Variance(0.8)), Scaled(3.0, Variance(0.8))),
    (NormCD(1.0, 1.0), InfConv(Variance(1.3), NormCD(1.0, 0.5))),
])
def test_price_and_welfare_are_the_means_and_terms_of_the_solve(jump_lattice, rng, g_a, g_b,
                                                                 shift_a, shift_b):
    """On the jump lattice, whose leaves are not equally likely, ``price``,
    ``du_a`` and ``du_b`` are, bit for bit, the formulas of the payoffs'
    means from ``represent`` and the solve's own terms: the standalone
    deviations and each agent's backward sum of its term of the node
    objective at the split."""
    lat, n = jump_lattice, jump_lattice.n_steps
    x_a = RandomVariable(rng.normal(size=lat.num_nodes(n)) + shift_a, n)
    x_b = RandomVariable(rng.normal(size=lat.num_nodes(n)) + shift_b, n)
    sol = solve_sharing(lat, SharingProblem(x_a, x_b, g_a, g_b))
    pair, nu = sol.total_pair, lat.noise.jumps
    parts = [certificate_gaps(g_a, g_b, lat.times[i], pair.H[i], pair.Htilde[i],
                              sol.argmin_H[i], sol.argmin_Ht[i], nu)[:2]
             for i in range(n)]
    dev_a, dev_b = (float(_accumulate(lat, list(p))[0][0]) for p in zip(*parts))
    mean_a, mean_b = represent(lat, x_a).mean, represent(lat, x_b).mean
    price = -mean_b - dev_b + sol.d0_b
    assert sol.price == price
    assert sol.du_a == ((mean_a + mean_b + price) - dev_a) - (mean_a - sol.d0_a)
    assert sol.du_b == (-price - dev_b) - (mean_b - sol.d0_b)


def test_solve_sharing_offsetting_positions(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(-x_a.values + 2.0, 4)
    sol = solve_sharing(binomial4, SharingProblem(x_a, x_b, Variance(1.0), Variance(2.0)))
    np.testing.assert_allclose(sol.y_star.values, 0.0, atol=1e-12)
    assert sol.infconv_d.d0 == pytest.approx(0.0, abs=1e-14)


def test_participation_constraint_binds(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    sol = solve_sharing(binomial4, SharingProblem(x_a, x_b, Variance(1.0), Variance(3.0)))
    assert abs(sol.du_b) <= 1e-8
    assert sol.du_a >= -1e-8
    d_a = evaluate(binomial4, Variance(1.0), represent(binomial4, x_a)).d0
    if sol.infconv_d.d0 < d_a - 1e-8:
        assert sol.du_a > 0.0


def test_upper_bound_dominance(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    g_a, g_b = Variance(1.0), Variance(2.5)
    sol = solve_sharing(binomial4, SharingProblem(x_a, x_b, g_a, g_b))
    total = x_a + x_b
    for _ in range(20):
        y = RandomVariable(rng.normal(size=16), 4)
        split = evaluate(binomial4, g_a, represent(binomial4, total - y)).d0 \
            + evaluate(binomial4, g_b, represent(binomial4, y)).d0
        assert split >= sol.infconv_d.d0 - 1e-9


def test_swap_symmetry_of_total_value(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    g_a, g_b = Variance(1.0), Variance(2.0)
    sol_ab = solve_sharing(binomial4, SharingProblem(x_a, x_b, g_a, g_b))
    sol_ba = solve_sharing(binomial4, SharingProblem(x_b, x_a, g_b, g_a))
    assert sol_ab.infconv_d.d0 == pytest.approx(sol_ba.infconv_d.d0, abs=1e-9)


def test_residual_check_quadratic_interior(binomial4):
    w = terminal_brownian(binomial4)
    x_a = RandomVariable(2.0 * w.values + 0.5 * w.values ** 2, 4)
    x_b = w
    prob = SharingProblem(x_a, x_b, Variance(1.0), Variance(2.0))
    sol = solve_sharing(binomial4, prob)
    report = residual_check_reference(sol, prob, binomial4.noise.jumps)
    assert not report.skipped
    assert report.premise_met and report.smooth_a and report.smooth_b
    assert report.passed and report.interior_node_exists
    assert report.corner_share_nodes == 0
    assert report.corner_complement_nodes == 0
    assert report.min_share_norm > 1e-8
    assert report.min_complement_norm > 1e-8


def test_residual_check_norm_corners(binomial4):
    w = terminal_brownian(binomial4)
    prob = SharingProblem(
        RandomVariable(2.0 * w.values, 4), w, NormCD(2.0, 0.0), NormCD(1.0, 0.0))
    sol = solve_sharing(binomial4, prob)
    report = residual_check_reference(sol, prob, binomial4.noise.jumps)
    assert not report.premise_met
    assert not report.smooth_a and not report.smooth_b
    assert report.passed  # corners are permitted when no driver is smooth at 0
    assert report.corner_complement_nodes == report.nodes_checked  # all risk to B


def test_residual_check_skips_constant_total(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(-x_a.values + 1.0, 4)
    prob = SharingProblem(x_a, x_b, Variance(1.0), Variance(1.0))
    sol = solve_sharing(binomial4, prob)
    report = residual_check_reference(sol, prob, binomial4.noise.jumps)
    assert report.skipped and report.passed


def test_proportional_transfer_algebra(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    sym = proportional_transfer(2.0, 2.0, x_a, x_b)
    np.testing.assert_allclose(sym.values, 0.5 * (x_a.values - x_b.values), atol=1e-15)
    skew = proportional_transfer(1.0, 3.0, x_a, x_b)
    np.testing.assert_allclose(skew.values, 0.75 * x_a.values - 0.25 * x_b.values,
                               atol=1e-15)
    same = proportional_transfer(1.0, 3.0, x_a, x_a)
    np.testing.assert_allclose(same.values, 0.5 * x_a.values, atol=1e-15)
    with pytest.raises(ValueError):
        proportional_transfer(0.0, 1.0, x_a, x_b)


def test_residual_threshold_enforced(jump_lattice, rng):
    x_a = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    x_b = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    cfg = SolverConfig(residual_tolerance=1e-12)
    with pytest.raises(ValueError):
        solve_sharing(jump_lattice, SharingProblem(x_a, x_b, Variance(1.0),
                                                   Variance(1.0), cfg))
    # default configuration proceeds and reports the residual instead
    sol = solve_sharing(jump_lattice, SharingProblem(x_a, x_b, Variance(1.0),
                                                     Variance(1.0)))
    assert sol.max_residual > 0.0


def test_proportional_share_factor():
    from devlat import proportional_share_factor

    base = NormCD(1.0, 1.0)
    assert proportional_share_factor(Scaled(1.0, base), Scaled(3.0, base)) == 0.75
    assert proportional_share_factor(Variance(1.0), Variance(2.0)) == pytest.approx(1 / 3)
    assert proportional_share_factor(Variance(1.0), NormCD(1.0, 0.0)) is None
    # unequal slopes: the cheaper side takes every nonzero block, no fraction
    assert proportional_share_factor(NormCD(2.0, 1.0), NormCD(1.0, 0.5)) is None

    class Unhashable:  # a Custom oracle need not be hashable; bases compare by ==
        __hash__ = None

        def __call__(self, t, h, ht, nu):
            return float(h @ h)

    custom = Custom(Unhashable())
    assert proportional_share_factor(Scaled(1.0, custom), Scaled(3.0, custom)) == 0.75


def test_common_base_pair_splits_without_the_minimiser(jump_lattice, rng, monkeypatch):
    from devlat import proportional_share_factor, sharing

    def no_minimize(*args, **kwargs):
        raise AssertionError("common-base pairs have a closed-form split")

    monkeypatch.setattr(sharing, "minimize", no_minimize)
    base = CVaRJump(0.4)
    g_a, g_b = Scaled(1.0, base), Scaled(3.0, base)
    assert proportional_share_factor(g_a, g_b) == 0.75
    x_a = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    x_b = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    sol = solve_sharing(jump_lattice, SharingProblem(x_a, x_b, g_a, g_b))
    assert sol.attained
    for i in range(4):
        assert np.array_equal(sol.argmin_H[i], 0.75 * sol.total_pair.H[i])
        assert np.array_equal(sol.argmin_Ht[i], 0.75 * sol.total_pair.Htilde[i])


def test_argmins_match_proportional_integrands(binomial4, rng):
    x_a = RandomVariable(rng.normal(size=16), 4)
    x_b = RandomVariable(rng.normal(size=16), 4)
    prob = SharingProblem(x_a, x_b, Scaled(1.0, Variance(1.0)),
                          Scaled(3.0, Variance(1.0)))
    sol = solve_sharing(binomial4, prob)
    implied = represent(binomial4, proportional_transfer(1.0, 3.0, x_a, x_b) + x_b)
    for i in range(4):
        np.testing.assert_allclose(sol.argmin_H[i], implied.H[i], atol=1e-6)


def _abs_custom():
    def value(t, h, ht, nu):
        return float(h @ h) + float(np.abs(ht) @ nu.intensity_array)

    def subgradient(t, h, ht, nu):
        return np.concatenate([2.0 * h, np.sign(ht) * nu.intensity_array])

    return Custom(value, subgradient, name="quad_abs")


@pytest.mark.parametrize("g_a, g_b", [
    (NormCD(1.2, 0.7), Variance(0.9)),          # closed form
    (NormCD(1.0, 0.5), CVaRJump(0.4)),          # numeric
    (_abs_custom(), Scaled(2.0, Variance(1.0))),  # numeric
], ids=["norm_var", "norm_cvar", "custom_var"])
def test_level_certificate_matches_per_node_oracle(g_a, g_b, rng):
    nodes, d = 4, 1
    for _ in range(2):
        H = rng.normal(size=(nodes, d))
        Ht = rng.normal(size=(nodes, NU.m))
        splits = [(rng.normal(size=H.shape), rng.normal(size=Ht.shape)),
                  infconv_split(g_a, g_b, 0.0, H, Ht, NU)]
        for Z, Zt in splits:
            points = np.hstack([Z, Zt])
            _, _, values, gaps = certificate_gaps(g_a, g_b, 0.0, H, Ht, Z, Zt, NU)
            for v in range(nodes):
                def objective(zfull, h=H[v], ht=Ht[v]):
                    return g_a.value(0.0, h - zfull[:d], ht - zfull[d:], NU) \
                        + g_b.value(0.0, zfull[:d], zfull[d:], NU)

                want = certificate_gap_by_node(objective, points[v])
                assert gaps[v] == pytest.approx(want, rel=1e-7, abs=1e-7)
                assert values[v] == pytest.approx(objective(points[v]), rel=1e-12, abs=1e-12)


# -- the stacked solve: one split and one certificate over every level -------------

JUMPS2 = JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))


def _bits(obj, name="sol", out=None) -> dict:
    """Every leaf of a solution by path; floats and float arrays as their
    ``uint64`` views, so that -0.0 and 0.0 differ."""
    out = {} if out is None else out
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _bits(getattr(obj, field.name), f"{name}.{field.name}", out)
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            _bits(item, f"{name}[{i}]", out)
    elif isinstance(obj, np.ndarray):
        out[name] = (obj.shape, obj.view(np.uint64).tolist())
    elif isinstance(obj, float):
        out[name] = int(np.float64(obj).view(np.uint64))
    else:
        out[name] = obj
    return out


def _random_problem(lat, rng, g_a, g_b, solver=SolverConfig()):
    n = lat.n_steps
    return SharingProblem(RandomVariable(rng.normal(size=lat.num_nodes(n)), n),
                          RandomVariable(rng.normal(size=lat.num_nodes(n)), n),
                          g_a, g_b, solver)


_STACKED_LATTICES = {
    "binomial_d2": (TimeGrid.uniform(3, 1.0), NoiseModel.brownian(2)),
    "jump_m2": (TimeGrid.uniform(3, 1.0), NoiseModel(1, JUMPS2)),
}


@pytest.mark.parametrize("lat_name", sorted(_STACKED_LATTICES))
@pytest.mark.parametrize("g_a, g_b", [
    (Scaled(1.0, Variance(0.8)), Scaled(3.0, Variance(0.8))),
    (Variance(1.0), NormCD(1.0, 0.5)),
    (NormCD(2.0, 1.0), NormCD(1.0, 1.5)),
    (NormCD(1.0, 1.0), InfConv(Variance(1.3), NormCD(1.0, 0.5))),
], ids=["proportional", "radial_huber", "norm_norm", "infconv_sided"])
def test_stacked_solve_has_the_bits_of_the_per_level_loop(lat_name, g_a, g_b, rng):
    """One split and one certificate over the stacked rows of every level
    give every field of the level-by-level solve, bit for bit; level 0 is a
    one-node level on both lattices."""
    lat = build_lattice(*_STACKED_LATTICES[lat_name])
    prob = _random_problem(lat, rng, g_a, g_b)
    assert _bits(solve_sharing(lat, prob)) == _bits(solve_sharing_per_level(lat, prob))


def test_stacked_numeric_solve_has_the_bits_of_the_per_level_loop(rng):
    """A pair with no closed form solves every stacked row numerically at
    its own time, as the level-by-level loop does."""
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel(1, JUMPS2))
    solver = SolverConfig(max_iterations=200, stall_window=50, polish_iterations=20)
    prob = _random_problem(lat, rng, Scaled(2.0, Variance(1.0)), CVaRJump(0.4), solver)
    assert _bits(solve_sharing(lat, prob)) == _bits(solve_sharing_per_level(lat, prob))


def _time_weighted_square():
    def value(t, h, ht, nu):
        return (1.0 + t) * float(h @ h + ht @ ht)

    def subgradient(t, h, ht, nu):
        return 2.0 * (1.0 + t) * np.concatenate([h, ht])

    return Custom(value, subgradient, name="time_weighted")


def test_custom_driver_reads_each_stacked_row_time(binomial4, rng):
    """A driver whose value depends on t gets each row's own level time from
    the stacked split and certificate."""
    solver = SolverConfig(max_iterations=200, stall_window=50, polish_iterations=20)
    prob = _random_problem(binomial4, rng, _time_weighted_square(), Variance(1.0), solver)
    assert _bits(solve_sharing(binomial4, prob)) == \
        _bits(solve_sharing_per_level(binomial4, prob))


def test_custom_value_batch_takes_a_time_per_row(rng):
    custom = _time_weighted_square()
    t = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    H, Ht = rng.normal(size=(5, 1)), rng.normal(size=(5, 2))
    got = custom.value_batch(t, H, Ht, NU)
    want = np.array([custom.value(t[i], H[i], Ht[i], NU) for i in range(5)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    got = custom.subgradient_batch(t, H, Ht, NU)
    want = np.array([custom.subgradient(t[i], H[i], Ht[i], NU) for i in range(5)])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("spec", [
    Variance(1.3), NormCD(1.0, 0.5), CVaRJump(0.4), Scaled(2.0, NormCD(1.0, 1.0)),
    InfConv(Variance(1.0), NormCD(1.0, 0.5)), InfConv(Variance(1.0), CVaRJump(0.4)),
], ids=["variance", "norm_cd", "cvar_jump", "scaled", "infconv", "infconv_numeric"])
def test_builtin_kinds_ignore_the_row_times(spec, rng):
    t = np.array([0.0, 0.25, 0.5, 0.75])
    H, Ht = rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
    scalar, rows = spec.value_batch(0.5, H, Ht, NU), spec.value_batch(t, H, Ht, NU)
    assert scalar.view(np.uint64).tolist() == rows.view(np.uint64).tolist()


def test_one_plan_and_one_certificate_per_solve(binomial4, rng, monkeypatch):
    """The n=4 binomial solve builds the split plan and runs the certificate
    once, not once per level."""
    calls = {"_split_plan": 0, "certificate_gaps": 0}
    for name in calls:
        original = getattr(sharing, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sharing, name, counted)
    solve_sharing(binomial4, _random_problem(binomial4, rng, Variance(1.0), NormCD(1.0, 0.5)))
    assert calls == {"_split_plan": 1, "certificate_gaps": 1}


def _counted_minimize(monkeypatch):
    """The config of every ``sharing.minimize`` call, in call order."""
    seen, original = [], sharing.minimize

    def recorded(f, g, x0, config):
        seen.append(config)
        return original(f, g, x0, config)

    monkeypatch.setattr(sharing, "minimize", recorded)
    return seen


def test_a_three_part_plan_makes_one_solve_per_row_with_the_callers_settings(monkeypatch):
    """A plan of three parts splits each row among them jointly: one
    ``minimize`` call per row, each with the caller's ``SolverConfig``, and
    no solve nested inside another."""
    cfg = SolverConfig(max_iterations=10, stall_window=5, polish_iterations=2)
    seen = _counted_minimize(monkeypatch)
    g_a, g_b = InfConv(Variance(1.0), CVaRJump(0.3)), CVaRJump(0.5)
    assert len(sharing._split_plan(g_a, g_b)) == 3
    H, Ht = np.array([[0.3], [-1.0], [0.0]]), np.array([[0.1, -0.2], [0.5, 0.4], [-0.3, 0.0]])
    infconv_split(g_a, g_b, np.array([0.0, 0.5, 1.0]), H, Ht, NU, cfg)
    assert len(seen) == 3 and all(c is cfg for c in seen)


def _quadratic(q):
    """``q (|h|**2 + sum_j ht_j**2 nu_j)``: ``Variance(q)`` as a ``Custom``."""
    def value(t, h, ht, nu):
        return q * (h @ h + (ht * ht) @ nu.intensity_array)

    def subgradient(t, h, ht, nu):
        return 2.0 * q * np.concatenate([h, ht * nu.intensity_array])

    return Custom(value, subgradient, name=f"quadratic_{q}")


@pytest.mark.parametrize("h, ht", [([0.7], [0.3, -0.4]), ([-2.0], [0.0, 1.5]),
                                   ([0.0], [-0.2, 0.1])])
def test_a_three_part_quadratic_plan_meets_the_harmonic_mean(monkeypatch, h, ht):
    """Three ``Custom`` quadratics with q = 1, 2, 4 form a three-part plan,
    whose inf-convolution is the quadratic with ``(sum 1/q)**-1 = 4/7``; at
    most two solves: the joint split, and the ``InfConv`` side's own split
    when its value is taken."""
    g_a, g_b = InfConv(_quadratic(1.0), _quadratic(2.0)), _quadratic(4.0)
    assert len(sharing._split_plan(g_a, g_b)) == 3
    seen = _counted_minimize(monkeypatch)
    value, _ = infconv_value(g_a, g_b, 0.0, h, ht, NU)
    h, ht = np.array(h), np.array(ht)
    want = 4.0 / 7.0 * (h @ h + (ht * ht) @ NU.intensity_array)
    assert value == pytest.approx(want, rel=1e-12)
    assert len(seen) <= 2


@pytest.mark.parametrize("g_a, g_b, unbounded", [
    (NormCD(1.0, 0.5), CVaRJump(0.4), True),
    (InfConv(Variance(1.0), NormCD(1.0, 0.5)), CVaRJump(0.4), True),
    (Scaled(3.0, CVaRJump(0.4)), InfConv(Variance(1.0), Scaled(0.5, NormCD(0.0, 0.9))), True),
    (NormCD(1.0, 2.0), CVaRJump(0.4), False),
    (NormCD(1.0, 1.0), CVaRJump(0.4), False),
    (NormCD(1.0, 0.5), Variance(1.0), False),
    (CVaRJump(0.2), CVaRJump(0.4), False),
], ids=["norm_cvar", "huber_cvar", "nested", "steep_norm_cvar", "norm_at_the_bound",
        "norm_variance", "cvar_pair"])
def test_a_cvar_atom_against_a_shallow_norm_atom_is_not_attained(rng, g_a, g_b, unbounded):
    """The inf-convolution is -inf when some ``CVaRJump`` atom meets some
    ``NormCD`` atom with ``d * sqrt(total intensity) < 1``, in either tree
    and in either order (``NU``'s total intensity is 1); such a solve is not
    attained, whatever its certificate reads."""
    assert sharing._unbounded(g_a, g_b, NU) == sharing._unbounded(g_b, g_a, NU) == unbounded
    if unbounded:
        lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel(1, NU))
        solver = SolverConfig(max_iterations=200, stall_window=50, polish_iterations=20)
        sol = solve_sharing(lat, _random_problem(lat, rng, g_a, g_b, solver))
        assert sol.unbounded and not sol.attained


def test_the_unbounded_verdict_comes_from_one_scan_per_solve(monkeypatch, rng):
    """``solve_sharing`` reports its one ``_unbounded`` scan as ``unbounded``,
    the verdict that also withholds ``attained``."""
    scans = []
    scan = sharing._unbounded
    monkeypatch.setattr(sharing, "_unbounded", lambda *args: scans.append(args) or scan(*args))
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel(1, NU))
    solver = SolverConfig(max_iterations=200, stall_window=50, polish_iterations=20)
    for g_b, unbounded in ((CVaRJump(0.4), True), (Variance(1.0), False)):
        sol = solve_sharing(lat, _random_problem(lat, rng, NormCD(1.0, 0.5), g_b, solver))
        assert sol.unbounded is unbounded
        assert sol.attained is not unbounded
    assert len(scans) == 2


def _solve(lat, x_a, x_b):
    return solve_sharing(lat, SharingProblem(x_a, x_b, Variance(1.0), Variance(2.0)))


@pytest.mark.parametrize("call, message", [
    (lambda lat, x, early: _solve(lat, early, x), "sharing payoffs must be terminal"),
    (lambda lat, x, early: _solve(lat, x, early), "sharing payoffs must be terminal"),
    (lambda lat, x, early: proportional_transfer(0.0, 1.0, x, x),
     "risk tolerances must be positive"),
    (lambda lat, x, early: proportional_transfer(1.0, math.nan, x, x),
     "risk tolerances must be finite"),
])
def test_sharing_refusals_name_their_cause(binomial2, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(binomial2, terminal_brownian(binomial2), RandomVariable(np.zeros(2), 1))
