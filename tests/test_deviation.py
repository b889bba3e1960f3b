import dataclasses
import math
import re

import numpy as np
import pytest

from devlat import (
    AnalyticPayoff,
    CVaRJump,
    Custom,
    JumpMeasure,
    NoiseModel,
    NormCD,
    RandomVariable,
    TimeGrid,
    Variance,
    assemble,
    axiom_report,
    build_lattice,
    deterministic_d0,
    evaluate,
    evaluate_recursive,
    law_probe,
    recursion_gap,
    permute_paths,
    represent,
    supermartingale_slack,
    terminal_brownian,
)
import devlat.deviation as deviation
from devlat.deviation import AxiomReport, LawMismatchError
from devlat.drivers import CheckOutcome, ValidityReport
from devlat.representation import RepresentingPair

from oracles import accumulate_reference, conditional_variance, \
    conditional_variance_by_paths, constancy_spread, utility


def _zero_pair(lat, mean=0.0):
    d, m = lat.noise.d, lat.noise.jumps.m
    return RepresentingPair(
        mean,
        tuple(np.zeros((lat.num_nodes(i), d)) for i in range(lat.n_steps)),
        tuple(np.zeros((lat.num_nodes(i), m)) for i in range(lat.n_steps)),
        tuple(np.zeros(lat.num_nodes(i)) for i in range(lat.n_steps)),
    )


def _compensated_jump_sum(lat, mark):
    pair = _zero_pair(lat)
    Ht = []
    for i in range(lat.n_steps):
        block = np.zeros((lat.num_nodes(i), lat.noise.jumps.m))
        block[:, mark] = 1.0
        Ht.append(block)
    return assemble(lat, RepresentingPair(0.0, pair.H, tuple(Ht), pair.residuals))


def test_d0_of_brownian_under_variance(binomial4):
    dev = evaluate(binomial4, Variance(1.0), represent(binomial4, terminal_brownian(binomial4)))
    assert dev.d0 == pytest.approx(1.0, abs=1e-12)


def test_d0_of_brownian_under_norm(binomial4):
    dev = evaluate(binomial4, NormCD(1.0, 0.0), represent(binomial4, terminal_brownian(binomial4)))
    assert dev.d0 == pytest.approx(1.0, abs=1e-12)


def test_constant_payoff_has_zero_deviation(binomial4):
    dev = evaluate(binomial4, NormCD(1.0, 0.0), _zero_pair(binomial4, mean=4.5))
    for i in range(5):
        np.testing.assert_array_equal(dev.at(i), 0.0)


def test_variance_identity_node_wise(binomial4, rng):
    alpha = 1.7
    for _ in range(5):
        x = RandomVariable(rng.normal(size=16), 4)
        dev = evaluate(binomial4, Variance(alpha), represent(binomial4, x))
        cv = conditional_variance(binomial4, x)
        for i in range(5):
            np.testing.assert_allclose(dev.at(i), alpha * cv.at(i), atol=1e-12)


def test_conditional_variance_matches_path_enumeration(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    cv = conditional_variance(jump_lattice, x)
    for level in (0, 1, 2):
        for node in range(jump_lattice.num_nodes(level)):
            want = conditional_variance_by_paths(jump_lattice, x.values, level, node)
            assert cv.at(level)[node] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_recursion_single_block_matches(binomial4, rng):
    x = RandomVariable(rng.normal(size=16), 4)
    pair = represent(binomial4, x)
    direct = evaluate(binomial4, Variance(1.0), pair)
    rec = evaluate_recursive(binomial4, Variance(1.0), pair, [0, 4])
    for i in range(5):
        np.testing.assert_allclose(rec.at(i), direct.at(i), atol=1e-12)


def test_recursion_full_partition_brownian(binomial4):
    pair = represent(binomial4, terminal_brownian(binomial4))
    rec = evaluate_recursive(binomial4, Variance(1.0), pair, [0, 1, 2, 3, 4])
    assert rec.d0 == pytest.approx(1.0, abs=1e-12)


def test_recursion_random_partitions(jump_lattice, rng):
    for _ in range(5):
        x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
        pair = represent(jump_lattice, x)
        for driver in (Variance(1.3), NormCD(1.0, 1.0)):
            direct = evaluate(jump_lattice, driver, pair)
            interior = sorted(rng.choice(np.arange(1, 4), size=2, replace=False))
            rec = evaluate_recursive(jump_lattice, driver, pair,
                                     [0, *map(int, interior), 4])
            gap = max(float(np.max(np.abs(direct.at(i) - rec.at(i))))
                      for i in range(5))
            assert gap <= 1e-12


def test_block_recursion_takes_the_driver_at_the_origin_in_one_call(jump_lattice, rng):
    """One driver call per step of each cell, and one over the n origin
    rows, each row at its own step's time."""
    calls = []

    class Counted:
        def value_batch(self, t, H, Ht, nu):
            calls.append((np.ndim(t), len(H)))
            return Variance(1.3).value_batch(t, H, Ht, nu)

    pair = represent(jump_lattice, RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4))
    rec = evaluate_recursive(jump_lattice, Counted(), pair, [0, 1, 3, 4])
    assert len(calls) == 4 + 1 and calls.count((1, 4)) == 1
    want = evaluate_recursive(jump_lattice, Variance(1.3), pair, [0, 1, 3, 4])
    assert all(np.array_equal(rec.at(i), want.at(i)) for i in range(5))


@pytest.mark.parametrize("payoffs", [1, 3])
@pytest.mark.parametrize("lo, hi", [(0, 4), (2, 4), (0, 3), (1, 2), (3, 4)])
def test_accumulate_matches_the_sum_from_a_zero_level_bit_for_bit(jump_lattice, rng,
                                                                  payoffs, lo, hi):
    """Starting at the last step keeps every bit of the sum from a zero level,
    for one payoff or several side by side, on windows that end before the
    horizon too: a -0.0 among the last step's values still reads +0.0."""
    values = [rng.normal(size=payoffs * jump_lattice.num_nodes(i)) for i in range(lo, hi)]
    values[-1][::3] = -0.0
    values[0][0] = -0.0
    got = deviation._accumulate(jump_lattice, values, lo)
    want = accumulate_reference(jump_lattice, values, lo)
    assert got[:lo] == want[:lo] == (None,) * lo and len(got) == len(want) == hi + 1
    for a, b in zip(got[lo:], want[lo:]):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    assert not np.signbit(got[hi - 1][::3]).any()


def test_recursion_gap_is_the_normal_partition_and_the_largest_level_gap(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    pair = represent(jump_lattice, x)
    driver = NormCD(1.0, 1.0)
    dev = evaluate(jump_lattice, driver, pair)
    part, gap = recursion_gap(jump_lattice, driver, pair, dev, [4, 2, 0, 2])
    rec = evaluate_recursive(jump_lattice, driver, pair, [0, 2, 4])
    assert part == [0, 2, 4]
    assert gap == max(float(np.max(np.abs(dev.at(i) - rec.at(i)))) for i in range(5))
    with pytest.raises(ValueError, match="must include levels 0 and n"):
        recursion_gap(jump_lattice, driver, pair, dev, [0, 2])


def test_recursion_partition_validation(binomial4):
    pair = _zero_pair(binomial4)
    with pytest.raises(ValueError, match="must include levels 0 and n"):
        evaluate_recursive(binomial4, Variance(1.0), pair, [1, 4])
    with pytest.raises(ValueError, match="must include levels 0 and n"):
        evaluate_recursive(binomial4, Variance(1.0), pair, [0, 2])
    # holds 0 and n, so only the range check can refuse it
    with pytest.raises(ValueError, match="outside the grid"):
        evaluate_recursive(binomial4, Variance(1.0), pair, [0, 6, 4])
    with pytest.raises(ValueError, match="outside the grid"):
        evaluate_recursive(binomial4, Variance(1.0), pair, [-1, 0, 4])


def test_evaluate_checks_the_integrand_shapes_of_every_level(binomial2):
    """A d=1 pair whose level-1 integrands have two columns is refused by
    ``evaluate``, as it is by ``assemble``."""
    pair = _zero_pair(binomial2)
    bad = RepresentingPair(0.0, (pair.H[0], np.ones((2, 2))), pair.Htilde,
                           pair.residuals)
    with pytest.raises(ValueError, match="level 1"):
        assemble(binomial2, bad)
    with pytest.raises(ValueError, match="level 1"):
        evaluate(binomial2, Variance(1.0), bad)


def test_deterministic_d0_examples():
    grid = TimeGrid.uniform(4, 1.0)
    nu = JumpMeasure.empty()
    flat = AnalyticPayoff(grid, np.ones((4, 1)), np.zeros((4, 0)))
    assert deterministic_d0(NormCD(1.0, 0.0), flat, nu) == pytest.approx(1.0, abs=1e-15)
    h = np.array([[math.sqrt(2)], [math.sqrt(2)], [0.0], [0.0]])
    burst = AnalyticPayoff(grid, h, np.zeros((4, 0)))
    assert deterministic_d0(NormCD(1.0, 0.0), burst, nu) == pytest.approx(
        0.70710678118654757, abs=1e-12)
    zero = AnalyticPayoff(grid, np.zeros((4, 1)), np.zeros((4, 0)))
    assert deterministic_d0(NormCD(1.0, 0.0), zero, nu) == 0.0


def test_deterministic_d0_refuses_an_htilde_width_off_the_jump_measure():
    grid = TimeGrid.uniform(2, 1.0)
    ap = AnalyticPayoff(grid, np.ones((2, 1)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        deterministic_d0(Variance(1.0), ap, JumpMeasure(((1.0,),), (0.5,)))


def test_utility_examples(binomial4):
    const = RandomVariable(np.full(16, 2.5), 4)
    dev = evaluate(binomial4, Variance(1.0), represent(binomial4, const))
    u = utility(binomial4, const, dev, 0)
    assert u.values[0] == pytest.approx(2.5, abs=1e-14)

    w = terminal_brownian(binomial4)
    dev_w = evaluate(binomial4, Variance(1.0), represent(binomial4, w))
    assert utility(binomial4, w, dev_w, 0).values[0] == pytest.approx(-1.0, abs=1e-12)
    # translation moves utility one-for-one
    shifted = w + 3.0
    dev_s = evaluate(binomial4, Variance(1.0), represent(binomial4, shifted))
    u0 = utility(binomial4, w, dev_w, 0).values[0]
    u1 = utility(binomial4, shifted, dev_s, 0).values[0]
    assert u1 == pytest.approx(u0 + 3.0, abs=1e-12)


def test_translation_invariance_exact(jump_lattice, rng):
    x = RandomVariable(rng.integers(-8, 9, size=jump_lattice.num_nodes(4)).astype(float), 4)
    for driver in (Variance(1.0), NormCD(1.0, 1.0)):
        base = evaluate(jump_lattice, driver, represent(jump_lattice, x))
        shifted = evaluate(jump_lattice, driver, represent(jump_lattice, x + 5.0))
        for i in range(5):
            assert np.array_equal(base.at(i), shifted.at(i))


def test_homogeneity_transfer(binomial4, rng):
    x = RandomVariable(rng.normal(size=16), 4)
    d_var = evaluate(binomial4, Variance(1.0), represent(binomial4, x)).d0
    d_norm = evaluate(binomial4, NormCD(1.0, 0.0), represent(binomial4, x)).d0
    for lam in (0.5, 2.0, 7.0):
        scaled = RandomVariable(lam * x.values, 4)
        dv = evaluate(binomial4, Variance(1.0), represent(binomial4, scaled)).d0
        dn = evaluate(binomial4, NormCD(1.0, 0.0), represent(binomial4, scaled)).d0
        assert dv == pytest.approx(lam * lam * d_var, abs=1e-10)
        assert dn == pytest.approx(lam * d_norm, abs=1e-10)


def test_supermartingale_and_positivity(jump_lattice, rng):
    for driver in (Variance(1.0), NormCD(1.0, 1.0)):
        x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
        dev = evaluate(jump_lattice, driver, represent(jump_lattice, x))
        assert min(float(v.min()) for v in dev.values) >= 0.0
        np.testing.assert_array_equal(dev.at(4), 0.0)
        assert supermartingale_slack(jump_lattice, dev) >= -1e-12


def test_local_property(jump_lattice, rng):
    t = 2
    subtree = jump_lattice.branching ** 2
    x1 = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    x2 = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    mask_t = rng.integers(0, 2, size=jump_lattice.num_nodes(t)).astype(float)
    mask = np.repeat(mask_t, subtree)
    glued = RandomVariable(mask * x1.values + (1 - mask) * x2.values, 4)
    for driver in (Variance(1.0), NormCD(1.0, 1.0)):
        d1 = evaluate(jump_lattice, driver, represent(jump_lattice, x1)).at(t)
        d2 = evaluate(jump_lattice, driver, represent(jump_lattice, x2)).at(t)
        dg = evaluate(jump_lattice, driver, represent(jump_lattice, glued)).at(t)
        np.testing.assert_allclose(dg, mask_t * d1 + (1 - mask_t) * d2, atol=1e-10)


def test_jump_variance_convergence_ratio():
    # compensated jump sum: deviation keeps the compensator value while the
    # tree variance carries an O(dt) defect that halves with the step
    noise = NoiseModel(1, JumpMeasure(((1.0,),), (0.5,)))
    errors = []
    for n in (4, 8):
        lat = build_lattice(TimeGrid.uniform(n, 1.0), noise)
        x = _compensated_jump_sum(lat, 0)
        d0 = evaluate(lat, Variance(1.0), represent(lat, x)).d0
        cv = conditional_variance(lat, x).at(0)[0]
        errors.append(abs(d0 - cv))
        assert d0 == pytest.approx(0.5, abs=1e-12)
    assert 0.35 <= errors[1] / errors[0] <= 0.65


def test_axiom_report_variance_binomial(binomial4, rng):
    payoffs = [RandomVariable(rng.integers(-8, 9, size=16).astype(float), 4)
               for _ in range(4)]
    report = axiom_report(binomial4, Variance(1.0), payoffs, seed=11)
    assert report.all_passed()
    assert report.translation.passed and not report.translation.vacuous


def test_axiom_report_norm_with_jumps(jump_lattice, rng):
    payoffs = [RandomVariable(
        rng.integers(-8, 9, size=jump_lattice.num_nodes(4)).astype(float), 4)
        for _ in range(4)]
    report = axiom_report(jump_lattice, NormCD(1.0, 1.0), payoffs, seed=7)
    assert report.all_passed()
    # constant-free samples never trigger the only-if direction
    assert report.positivity.vacuous


def test_axiom_report_positivity_failures(jump_lattice):
    n1, n2 = jump_lattice.jump_counts(4).T
    w = terminal_brownian(jump_lattice).values
    payoffs = [RandomVariable(n1 + n2, 4), RandomVariable(2 * n1 + n2 + w, 4)]
    # CVaRJump can be negative: the witness is the process minimum
    report = axiom_report(jump_lattice, CVaRJump(0.5), payoffs, seed=0)
    assert report.positivity == CheckOutcome(False, {"payoff_min": -1.0})
    # a driver that is never 0 charges a measurable payoff too
    report = axiom_report(jump_lattice, Custom(lambda t, h, ht, nu: 1.0), payoffs, seed=0)
    assert report.positivity == CheckOutcome(
        False, detail="nonzero deviation of a measurable payoff")
    assert not report.all_passed()


def test_axiom_report_concave_driver_fails_convexity(binomial4, rng):
    concave = Custom(
        lambda t, h, ht, nu: float(np.sqrt(np.sum(np.abs(h)) + np.sum(np.abs(ht))))
    )
    payoffs = [
        RandomVariable(np.zeros(16), 4),
        RandomVariable(2.0 * terminal_brownian(binomial4).values, 4),
    ]
    report = axiom_report(binomial4, concave, payoffs, seed=3)
    assert not report.convexity.passed
    assert report.convexity.witness is not None
    # witness reproduces: re-evaluate the flagged mixture
    i, j = report.convexity.witness["payoffs"]
    lam_t = np.asarray(report.convexity.witness["lambda_level"])
    t = report.level
    subtree = binomial4.branching ** (4 - t)
    lam = np.repeat(lam_t, subtree)
    mix = RandomVariable(lam * payoffs[i].values + (1 - lam) * payoffs[j].values, 4)
    lhs = evaluate(binomial4, concave, represent(binomial4, mix)).at(t)
    d_i = evaluate(binomial4, concave, represent(binomial4, payoffs[i])).at(t)
    d_j = evaluate(binomial4, concave, represent(binomial4, payoffs[j])).at(t)
    assert float(np.max(lhs - (lam_t * d_i + (1 - lam_t) * d_j))) > 1e-10


def test_axiom_report_sees_a_broken_block_evaluator(jump_lattice, monkeypatch):
    """The recursion probe runs the block recursion on the first sample's own
    conditional means; a block evaluator off by 1e-9 fails it, and the witness
    names the partition that the evaluator was given."""
    n1 = jump_lattice.jump_counts(4)[:, 0]
    w = jump_lattice.brownian_states(4)[:, 0]
    payoffs = [RandomVariable(2 * w - n1, 4), RandomVariable(w * w + 3 * n1, 4)]
    driver = NormCD(1.0, 1.0)
    assert axiom_report(jump_lattice, driver, payoffs, seed=3).recursion.passed
    seen, block = [], deviation._recursive_levels

    def broken(lat, g, mart, part):
        seen.append((mart, part))
        return tuple(v + 1e-9 for v in block(lat, g, mart, part))

    monkeypatch.setattr(deviation, "_recursive_levels", broken)
    report = axiom_report(jump_lattice, driver, payoffs, seed=3)
    assert not report.recursion.passed
    (mart, part), = seen
    assert mart[4] is payoffs[0].values
    assert part[0] == 0 and part[-1] == 4 and part == sorted(set(part))
    assert report.recursion.witness["partition"] == part
    assert report.recursion.witness["max_gap"] == pytest.approx(1e-9, rel=1e-3)
    for name in ("translation", "positivity", "convexity", "continuity", "locality"):
        assert getattr(report, name).passed, name


def test_law_probe_permutation_pairs(binomial4, rng):
    pairs = []
    for _ in range(3):
        x = RandomVariable(rng.normal(size=16), 4)
        pairs.append((x, permute_paths(binomial4, x, rng)))
    report = law_probe(binomial4, Variance(1.0), pairs)
    assert report.max_gap() <= 1e-10
    for entry in report.entries:
        assert not entry.continuous_limit_only


@pytest.mark.parametrize("lat_name", ["binomial4", "jump_lattice"])
def test_law_probe_d0s_are_evaluate_of_represent_bit_for_bit(lat_name, request, rng):
    """The residual-free pass gives the law probe the exact bits of
    ``evaluate(represent(x)).d0``, on a lattice with residuals too."""
    lat = request.getfixturevalue(lat_name)
    n = lat.n_steps
    pairs = []
    for _ in range(3):
        x = RandomVariable(rng.normal(size=lat.num_nodes(n)), n)
        pairs.append((x, permute_paths(lat, x, rng)))
    drivers = [Variance(1.3), NormCD(1.0, 0.5), Custom(lambda t, h, ht, nu: 1.0 + float(h @ h))]
    if lat.noise.jumps.m:
        drivers.append(CVaRJump(0.5))
    for driver in drivers:
        report = law_probe(lat, driver, pairs)
        for entry, (x1, x2) in zip(report.entries, pairs):
            assert entry.d0_first == evaluate(lat, driver, represent(lat, x1)).d0
            assert entry.d0_second == evaluate(lat, driver, represent(lat, x2)).d0


def test_law_probe_analytic_gap(binomial4):
    grid = binomial4.grid
    flat = AnalyticPayoff(grid, np.ones((4, 1)), np.zeros((4, 0)))
    burst = AnalyticPayoff(
        grid, np.array([[math.sqrt(2)], [math.sqrt(2)], [0.0], [0.0]]),
        np.zeros((4, 0)))
    report = law_probe(binomial4, NormCD(1.0, 0.0), analytic_pairs=[(flat, burst)])
    entry = report.entries[0]
    assert entry.continuous_limit_only
    assert entry.d0_first == pytest.approx(1.0, abs=1e-12)
    assert entry.d0_second == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert entry.gap == pytest.approx(0.29289321881345254, abs=1e-12)


@pytest.mark.parametrize("law_tol", [-1.0, -1e-300, float("nan")])
def test_law_probe_refuses_a_negative_or_nan_law_tol(binomial4, law_tol):
    with pytest.raises(ValueError, match="law_tol must be >= 0"):
        law_probe(binomial4, Variance(1.0), law_tol=law_tol)


def test_law_probe_refuses_analytic_payoffs_off_the_lattice(binomial4):
    grid = binomial4.grid
    ok = AnalyticPayoff(grid, np.ones((4, 1)), np.zeros((4, 0)))
    wide = AnalyticPayoff(grid, np.ones((4, 2)), np.zeros((4, 0)))
    coarse = AnalyticPayoff(TimeGrid.uniform(4, 2.0), np.ones((4, 1)), np.zeros((4, 0)))
    with pytest.raises(ValueError, match="dimensions do not match"):
        law_probe(binomial4, Variance(1.0), analytic_pairs=[(ok, wide)])
    with pytest.raises(ValueError, match="grid does not match"):
        law_probe(binomial4, Variance(1.0), analytic_pairs=[(coarse, ok)])


def test_law_probe_rejects_mismatched_pairs(binomial4, rng):
    x = RandomVariable(rng.normal(size=16), 4)
    y = RandomVariable(x.values + 1.0, 4)
    with pytest.raises(LawMismatchError):
        law_probe(binomial4, Variance(1.0), [(x, y)])


def test_deviation_constant_across_independent_payoffs(binomial4, rng):
    # payoff depending only on increments after level t: deviation at t is flat
    t = 2
    suffix = rng.normal(size=binomial4.branching ** 2)
    x = RandomVariable(np.tile(suffix, binomial4.num_nodes(t)), 4)
    dev = evaluate(binomial4, Variance(1.0), represent(binomial4, x))
    assert constancy_spread(dev, t) <= 1e-10


@pytest.mark.parametrize("report_type, checks", [(ValidityReport, 5), (AxiomReport, 6)])
def test_all_passed_reads_every_check_of_a_report(report_type, checks):
    """A report passes when every one of its ``CheckOutcome`` fields passes,
    a vacuous pass included; failing any one of them fails it."""
    passing = {f.name: CheckOutcome(True, vacuous=True) if f.type == "CheckOutcome" else 0
               for f in dataclasses.fields(report_type)}
    names = [name for name, v in passing.items() if isinstance(v, CheckOutcome)]
    assert len(names) == checks and report_type(**passing).all_passed()
    for name in names:
        assert not report_type(**{**passing, name: CheckOutcome(False)}).all_passed(), name


@pytest.mark.parametrize("payoffs, mixtures, message", [
    (1, 50, "need at least two sample payoffs"),
    (0, 50, "need at least two sample payoffs"),
    (2, 0, "mixtures must be >= 1"),
])
def test_axiom_report_refusals_name_their_cause(binomial4, payoffs, mixtures, message):
    x = terminal_brownian(binomial4)
    with pytest.raises(ValueError, match=f"^{message}$"):
        axiom_report(binomial4, Variance(1.0), [x] * payoffs, mixtures=mixtures)


@pytest.mark.parametrize("mixtures, message", [
    (65, "'mixtures' = 65 is over the max_nodes budget 64"),
    (62, "'mixtures' = 62 gives 4160 probe cells, over 64 x the max_nodes budget 64 = 4096"),
])
def test_axiom_report_refuses_its_budget_before_drawing(monkeypatch, mixtures, message):
    """Mixtures over ``max_nodes``, or ``(mixtures + 3) x leaves`` probe
    cells over 64 times it, are refused before any payoff is read or drawn."""
    lat = build_lattice(TimeGrid.uniform(6, 1.0), NoiseModel.brownian(1), max_nodes=64)
    x = terminal_brownian(lat)
    monkeypatch.setattr(deviation, "martingale", None)
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        axiom_report(lat, Variance(1.0), [x, x], mixtures=mixtures)
