import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devlat import (
    AnalyticPayoff,
    CVaRJump,
    Custom,
    InfConv,
    JumpMeasure,
    NoiseModel,
    NormCD,
    RandomVariable,
    RepresentingPair,
    Scaled,
    TimeGrid,
    Variance,
    assemble,
    build_lattice,
    evaluate,
    evaluate_recursive,
    represent,
    supermartingale_slack,
    terminal_brownian,
)
from devlat.deviation import _levels, _stacked_dev_at
from devlat.lattice import _martingale_levels
from devlat.representation import _project

from oracles import cond_exp, conditional_mean_by_paths, enumerate_paths, \
    evaluate_recursive_reference, lift_analytic, normal_equations_projector, \
    project_by_normal_equations


def _zero_pair(lat, mean=0.0):
    d, m = lat.noise.d, lat.noise.jumps.m
    return RepresentingPair(
        mean,
        tuple(np.zeros((lat.num_nodes(i), d)) for i in range(lat.n_steps)),
        tuple(np.zeros((lat.num_nodes(i), m)) for i in range(lat.n_steps)),
        tuple(np.zeros(lat.num_nodes(i)) for i in range(lat.n_steps)),
    )


def test_identity_integrand_for_brownian(binomial4):
    pair = represent(binomial4, terminal_brownian(binomial4))
    assert pair.mean == pytest.approx(0.0, abs=1e-15)
    for i in range(4):
        np.testing.assert_allclose(pair.H[i], 1.0, atol=1e-13)
        np.testing.assert_array_equal(pair.Htilde[i], np.zeros((2 ** i, 0)))
        assert pair.residuals[i].max() <= 1e-13


def test_squared_brownian_integrand(binomial4):
    w = terminal_brownian(binomial4)
    pair = represent(binomial4, RandomVariable(w.values ** 2, 4))
    for i in range(4):
        states = binomial4.brownian_states(i)[:, 0]
        np.testing.assert_allclose(pair.H[i][:, 0], 2.0 * states, atol=1e-12)
        assert pair.residuals[i].max() <= 1e-12


def test_compensated_jump_count_integrand(jump_lattice):
    # payoff assembled from a unit jump integrand must be recovered exactly
    d, m = 1, 2
    H = tuple(np.zeros((jump_lattice.num_nodes(i), d)) for i in range(4))
    Ht = []
    for i in range(4):
        block = np.zeros((jump_lattice.num_nodes(i), m))
        block[:, 1] = 1.0
        Ht.append(block)
    pair = RepresentingPair(0.0, H, tuple(Ht),
                            tuple(np.zeros(jump_lattice.num_nodes(i)) for i in range(4)))
    x = assemble(jump_lattice, pair)
    back = represent(jump_lattice, x)
    assert back.mean == pytest.approx(0.0, abs=1e-14)
    for i in range(4):
        np.testing.assert_allclose(back.H[i], 0.0, atol=1e-13)
        np.testing.assert_allclose(back.Htilde[i][:, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(back.Htilde[i][:, 0], 0.0, atol=1e-12)
        assert back.residuals[i].max() <= 1e-12


def test_zero_pair_assembles_to_constant(binomial4):
    x = assemble(binomial4, _zero_pair(binomial4, mean=7.0))
    np.testing.assert_array_equal(x.values, 7.0)


def test_round_trip(jump_lattice, rng):
    pair = represent(jump_lattice, RandomVariable(
        rng.normal(size=jump_lattice.num_nodes(4)), 4))
    # projection may be lossy; re-projecting the assembled payoff is not
    assembled = assemble(jump_lattice, pair)
    back = represent(jump_lattice, assembled)
    assert back.mean == pytest.approx(pair.mean, abs=1e-12)
    for i in range(4):
        np.testing.assert_allclose(back.H[i], pair.H[i], atol=1e-10)
        np.testing.assert_allclose(back.Htilde[i], pair.Htilde[i], atol=1e-10)
        assert back.residuals[i].max() <= 1e-10


def test_residual_orthogonality(jump_lattice, rng):
    x = RandomVariable(rng.normal(size=jump_lattice.num_nodes(4)), 4)
    pair = represent(jump_lattice, x)
    from devlat import martingale

    mart = martingale(jump_lattice, x)
    for i in range(4):
        phi = jump_lattice.step_basis(i)[0]
        p = jump_lattice.step_probs(i)
        dm = jump_lattice.children(mart.at(i + 1)) - mart.at(i)[:, None]
        resid = dm - np.hstack([pair.H[i], pair.Htilde[i]]) @ phi.T
        cov = resid @ (phi * p[:, None])
        assert np.max(np.abs(cov)) <= 1e-10


def test_translation_shifts_mean_only(jump_lattice, rng):
    # integer payoffs on the dyadic lattice keep every average exact
    values = rng.integers(-8, 9, size=jump_lattice.num_nodes(4)).astype(float)
    x = RandomVariable(values, 4)
    pair = represent(jump_lattice, x)
    shifted = represent(jump_lattice, x + 3.0)
    assert shifted.mean == pair.mean + 3.0
    for i in range(4):
        assert np.array_equal(shifted.H[i], pair.H[i])
        assert np.array_equal(shifted.Htilde[i], pair.Htilde[i])


def test_linearity(binomial4, rng):
    x = RandomVariable(rng.normal(size=16), 4)
    y = RandomVariable(rng.normal(size=16), 4)
    a, b = 1.7, -0.6
    combo = represent(binomial4, RandomVariable(a * x.values + b * y.values, 4))
    px, py = represent(binomial4, x), represent(binomial4, y)
    for i in range(4):
        np.testing.assert_allclose(combo.H[i], a * px.H[i] + b * py.H[i], atol=1e-10)


def test_residual_zero_on_binomial(binomial4, rng):
    pair = represent(binomial4, RandomVariable(rng.normal(size=16), 4))
    assert pair.max_residual() <= 1e-12


def test_assemble_path_sum_matches_enumeration():
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    ap = AnalyticPayoff(lat.grid, np.ones((2, 1)), np.zeros((2, 0)))
    x = assemble(lat, lift_analytic(ap, lat))
    for leaf, outcomes, _ in enumerate_paths(lat):
        want = sum(float(lat.step_dw(i)[o, 0]) for i, o in enumerate(outcomes))
        assert x.values[leaf] == pytest.approx(want, abs=1e-15)


def test_lift_analytic_broadcast(binomial4):
    h = np.array([[math.sqrt(2)], [math.sqrt(2)], [0.0], [0.0]])
    ap = AnalyticPayoff(binomial4.grid, h, np.zeros((4, 0)))
    pair = lift_analytic(ap, binomial4)
    assert pair.mean == 0.0
    for i in range(4):
        np.testing.assert_array_equal(pair.H[i], h[i, 0])


def test_lift_analytic_grid_mismatch(binomial4):
    other = TimeGrid.uniform(2, 1.0)
    ap = AnalyticPayoff(other, np.ones((2, 1)), np.zeros((2, 0)))
    with pytest.raises(ValueError):
        lift_analytic(ap, binomial4)


def test_analytic_payoff_needs_steps():
    grid = TimeGrid.uniform(2, 1.0)
    with pytest.raises(ValueError):
        AnalyticPayoff(grid, np.ones((1, 1)), np.zeros((1, 0)))


@pytest.mark.parametrize("h, htilde", [
    ([[1.0], [math.nan]], [[0.0], [0.0]]),
    ([[1.0], [0.5]], [[math.inf], [0.0]]),
    ([[1.0], [0.5]], [[0.0], [-math.inf]]),
])
def test_analytic_payoff_refuses_non_finite_integrands(h, htilde):
    with pytest.raises(ValueError, match="^integrands must be finite$"):
        AnalyticPayoff(TimeGrid.uniform(2, 1.0), np.array(h), np.array(htilde))


def test_assemble_shape_mismatch(binomial4, binomial2):
    pair = _zero_pair(binomial2)
    with pytest.raises(ValueError):
        assemble(binomial4, pair)


# -- properties on random lattices (d in {0, 1, 2}, m in {0, 2}) ----------------------


@st.composite
def lattices(draw):
    d, m = draw(st.sampled_from([(0, 2), (1, 0), (2, 0), (1, 2), (2, 2)]))
    n = draw(st.integers(1, 3 if d + m < 4 else 2))
    intensities = draw(st.sampled_from([(0.25, 0.5), (0.3, 0.7), (0.5, 0.5)]))
    jumps = JumpMeasure(((-1.0,), (2.0,)), intensities) if m else JumpMeasure.empty()
    # quarter steps keep every jump mass per step under the 1/2 cap
    return build_lattice(TimeGrid.uniform(n, 0.25 * n), NoiseModel(d, jumps))


def _random_pair(lat, rng):
    d, m = lat.noise.d, lat.noise.jumps.m
    sizes = [lat.num_nodes(i) for i in range(lat.n_steps)]
    return RepresentingPair(
        float(rng.normal()),
        tuple(rng.normal(size=(k, d)) for k in sizes),
        tuple(rng.normal(size=(k, m)) for k in sizes),
        tuple(np.zeros(k) for k in sizes),
    )


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_represent_inverts_assemble(lat, seed):
    pair = _random_pair(lat, np.random.default_rng(seed))
    back = represent(lat, assemble(lat, pair))
    assert back.mean == pytest.approx(pair.mean, abs=1e-12)
    for i in range(lat.n_steps):
        np.testing.assert_allclose(back.H[i], pair.H[i], rtol=0, atol=1e-10)
        np.testing.assert_allclose(back.Htilde[i], pair.Htilde[i], rtol=0, atol=1e-10)
        assert back.residuals[i].max() <= 1e-10


# -- the closed-form projector against the normal equations ----------------------


@st.composite
def projector_lattices(draw):
    """d in {0, 1, 2}, m in {0..3}, a random grid of one or two steps and
    random intensities whose per-step jump mass is inside the 1/2 bound."""
    d = draw(st.integers(0, 2))
    m = draw(st.integers(0 if d else 1, 3))
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=2))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m)))
    mass = draw(st.floats(0.01, 1.0)) * 0.5
    jumps = JumpMeasure(tuple((float(j),) for j in range(1, m + 1)),
                        tuple(raw * (mass / (raw.sum() * max(steps))))) if m \
        else JumpMeasure.empty()
    return build_lattice(TimeGrid(tuple(np.cumsum([0.0, *steps]))), NoiseModel(d, jumps))


#: a few rounding errors: 2,000 drawn lattices needed at most 3.1 ulps of
#: each column's largest entry, and 2.5 ulps of the identity
ULPS = 8 * np.finfo(float).eps


@settings(max_examples=100, deadline=None)
@given(projector_lattices())
def test_projector_is_a_weighted_left_inverse_of_the_basis(lat):
    for i in range(lat.n_steps):
        phi, proj = lat.step_basis(i)
        assert proj.shape == phi.shape
        np.testing.assert_allclose(phi.T @ proj, np.eye(phi.shape[1]), rtol=0, atol=ULPS)


@settings(max_examples=100, deadline=None)
@given(projector_lattices())
def test_projector_is_the_normal_equations_solution(lat):
    for i in range(lat.n_steps):
        proj, want = lat.step_basis(i)[1], normal_equations_projector(lat, i)
        assert np.all(np.abs(proj - want) <= ULPS * np.max(np.abs(want), axis=0))


@settings(max_examples=60, deadline=None)
@given(projector_lattices(), st.integers(0, 2 ** 32 - 1))
def test_project_matches_the_normal_equations(lat, seed):
    n = lat.n_steps
    x = np.random.default_rng(seed).normal(size=lat.num_nodes(n))
    mart = _martingale_levels(lat, x, n)
    # only ``represent`` forms the residuals
    got = (*_project(lat, mart), represent(lat, RandomVariable(x, n)).residuals)
    want = project_by_normal_equations(lat, mart)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        scale = max(1.0, *(float(np.abs(a).max(initial=0.0)) for a in w))
        for i in range(n):
            np.testing.assert_allclose(g[i], w[i], rtol=0, atol=1e-12 * scale)


def _drivers(lat):
    out = [Variance(1.3), NormCD(1.0, 0.5), Scaled(2.0, Variance(0.7))]
    if lat.noise.jumps.m:
        out.append(CVaRJump(0.5))
    return out


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_evaluate_is_the_block_recursion(lat, seed):
    rng = np.random.default_rng(seed)
    n = lat.n_steps
    x = RandomVariable(rng.normal(size=lat.num_nodes(n)), n)
    pair = represent(lat, x)
    cuts = rng.permutation(np.arange(1, n))[: rng.integers(0, n)]
    partition = [0, n, *map(int, cuts)]
    for driver in _drivers(lat):
        direct = evaluate(lat, driver, pair)
        rec = evaluate_recursive(lat, driver, pair, partition)
        scale = max(1.0, float(np.max(np.abs(direct.at(0)))))
        for i in range(n + 1):
            np.testing.assert_allclose(rec.at(i), direct.at(i), rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), st.data())
def test_block_recursion_is_the_whole_lattice_loop_bit_for_bit(lat, seed, data):
    """Each cell worked on its own levels gives the bits of representing and
    evaluating the whole lattice per cell with the other levels zeroed, also
    for a driver that is not zero at the origin."""
    n = lat.n_steps
    x = RandomVariable(np.random.default_rng(seed).normal(size=lat.num_nodes(n)), n)
    pair = represent(lat, x)
    partition = [0, n, *data.draw(st.sets(st.integers(1, n - 1)) if n > 1 else st.just(()))]
    mid = lat.times[n // 2]
    drivers = [*_drivers(lat), InfConv(Variance(1.3), NormCD(1.0, 0.5)),
               Custom(lambda t, h, ht, nu: 1.0),
               Custom(lambda t, h, ht, nu: float(h @ h) + (t < mid)),
               Custom(lambda t, h, ht, nu: float(h @ h) + (t >= mid))]
    for driver in drivers:
        got = evaluate_recursive(lat, driver, pair, partition)
        want = evaluate_recursive_reference(lat, driver, pair, partition)
        for i in range(n + 1):
            assert got.at(i).tobytes() == want.at(i).tobytes(), (driver, i)


@pytest.mark.parametrize("partition", [[0, 1, 4], [0, 2, 4], [0, 1, 2, 3, 4]])
@pytest.mark.parametrize("steps", [(1,), (2, 3), (0, 2), ()])
def test_block_recursion_keeps_the_origin_terms_above_a_cell(jump_lattice, rng,
                                                             partition, steps):
    """A driver nonzero at the origin on ``steps`` only: a cell below them
    accumulates through them, and the zero tails above them are skipped, with
    the bits of the whole-lattice loop, sign bits included."""
    lat = jump_lattice
    on = {lat.times[i] for i in steps}
    driver = Custom(lambda t, h, ht, nu: float(h @ h + ht @ ht) + 0.5 * (t in on))
    pair = represent(lat, RandomVariable(rng.normal(size=lat.num_nodes(4)), 4))
    got = evaluate_recursive(lat, driver, pair, partition)
    want = evaluate_recursive_reference(lat, driver, pair, partition)
    for i in range(lat.n_steps + 1):
        assert got.at(i).tobytes() == want.at(i).tobytes(), i


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
def test_stacked_payoffs_match_single_calls(lat, seed, k):
    rng = np.random.default_rng(seed)
    n = lat.n_steps
    X = rng.normal(size=(k, lat.num_nodes(n)))
    level = int(rng.integers(0, n + 1))
    for driver in _drivers(lat):
        single = np.stack([
            evaluate(lat, driver, represent(lat, RandomVariable(row, n))).at(level)
            for row in X
        ])
        stacked = _stacked_dev_at(lat, driver, X, level)
        scale = max(1.0, float(np.max(np.abs(single))))
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-12 * scale)
        # one payoff runs exactly the single call's arithmetic
        assert _stacked_dev_at(lat, driver, X[:1], level).tobytes() == single[:1].tobytes()


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_residual_free_single_pass_is_evaluate_of_represent_bit_for_bit(lat, seed):
    """The probes' single pass skips the remainders and residuals, and the
    windowed pass for ``D_t`` fills levels ``t..n`` only, but both keep every
    bit of ``represent`` and ``evaluate``, also under a driver that is not
    zero at the origin."""
    n = lat.n_steps
    x = RandomVariable(np.random.default_rng(seed).normal(size=lat.num_nodes(n)), n)
    pair = represent(lat, x)
    H, Ht = _project(lat, _martingale_levels(lat, x.values, n))
    for i in range(n):
        assert H[i].tobytes() == pair.H[i].tobytes()
        assert Ht[i].tobytes() == pair.Htilde[i].tobytes()
    drivers = [*_drivers(lat), InfConv(Variance(1.3), NormCD(1.0, 0.5)),
               Custom(lambda t, h, ht, nu: 1.0 + t + float(h @ h) + float(np.abs(ht).sum()))]
    for driver in drivers:
        want = evaluate(lat, driver, pair)
        mart, dev = _levels(lat, driver, x.values, n)
        assert float(mart[0][0]) == pair.mean
        for level in range(n + 1):
            assert dev[level].tobytes() == want.at(level).tobytes()
            got = _stacked_dev_at(lat, driver, x.values[None], level)[0]
            assert got.tobytes() == want.at(level).tobytes()
            mart, dev = _levels(lat, driver, x.values, n, level)
            assert all(v is None for v in (*mart[:level], *dev[:level]))
            assert dev[level].tobytes() == want.at(level).tobytes()


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_tower_property_is_bit_exact(lat, seed):
    n = lat.n_steps
    x = RandomVariable(np.random.default_rng(seed).normal(size=lat.num_nodes(n)), n)
    for s in range(n + 1):
        inner = cond_exp(lat, x, s).as_random_variable()
        for t in range(s + 1):
            assert cond_exp(lat, inner, t).at(t).tobytes() == cond_exp(lat, x, t).at(t).tobytes()


#: drivers that are nonnegative everywhere, and their inf-convolutions
NONNEGATIVE = [Variance(1.3), NormCD(1.0, 0.5), Scaled(2.0, Variance(0.7)),
               InfConv(Variance(1.3), NormCD(1.0, 0.5)),
               InfConv(Scaled(2.0, Variance(0.7)), Variance(1.3)),
               InfConv(Scaled(0.5, NormCD(1.0, 0.5)), NormCD(0.3, 2.0))]


@settings(max_examples=60, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_deviation_is_a_nonnegative_supermartingale(lat, seed):
    """Each node is ``cont + g * dt`` with ``g >= 0``, and the slack recomputes
    ``cont`` with the same product, so both hold exactly in floats."""
    n = lat.n_steps
    pair = represent(lat, RandomVariable(np.random.default_rng(seed).normal(
        size=lat.num_nodes(n)), n))
    for driver in NONNEGATIVE:
        dev = evaluate(lat, driver, pair)
        assert all(np.all(v >= 0.0) for v in dev.values)
        assert supermartingale_slack(lat, dev) >= 0.0


@settings(max_examples=40, deadline=None)
@given(lattices())
def test_compensated_counts_are_the_assembled_jump_columns(lat):
    """``C_j`` bit for bit as ``assemble`` of the one-hot integrand of mark j."""
    n, d, m = lat.n_steps, lat.noise.d, lat.noise.jumps.m
    sizes = [lat.num_nodes(i) for i in range(n)]
    comp = lat.compensated_counts(n)
    assert comp.shape == (lat.num_nodes(n), m)
    for j in range(m):
        pair = RepresentingPair(0.0, tuple(np.zeros((k, d)) for k in sizes),
                                tuple(np.tile(np.eye(m)[j], (k, 1)) for k in sizes),
                                tuple(np.zeros(k) for k in sizes))
        assert comp[:, j].tobytes() == assemble(lat, pair).values.tobytes()


# -- the lattice's level operators against the path enumeration ---------------------


def _node_prefixes(paths, level):
    """The outcomes leading to each node of ``level``, in node order."""
    return sorted({outcomes[:level] for _, outcomes, _ in paths})


@settings(max_examples=40, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_level_operators_follow_the_path_enumeration(lat, seed):
    rng = np.random.default_rng(seed)
    n, paths = lat.n_steps, enumerate_paths(lat)
    x = rng.normal(size=lat.num_nodes(n))
    for t in range(n + 1):
        rank = {prefix: a for a, prefix in enumerate(_node_prefixes(paths, t))}
        y = rng.normal(size=len(rank))
        spread, children = lat.spread(y, n - t), lat.children(x, n - t)
        leaves = [[] for _ in rank]
        for leaf, outcomes, _ in paths:
            assert spread[leaf] == y[rank[outcomes[:t]]]
            leaves[rank[outcomes[:t]]].append(leaf)
        assert children.tobytes() == x[np.array(leaves)].tobytes()
    means = [np.array([conditional_mean_by_paths(lat, x, t, v)
                       for v in range(lat.num_nodes(t))]) for t in range(n + 1)]
    scale = max(1.0, float(np.max(np.abs(x))))
    for t in range(n):
        np.testing.assert_allclose(lat.expect(t, means[t + 1]), means[t],
                                   rtol=0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
def test_level_operators_keep_stacked_payoffs_apart(lat, seed, k):
    """K payoffs side by side, payoff-major, stay K trees: moving values gives
    each payoff its own bits, and a payoff's conditional mean does not read
    the others. The matrix-vector product may round a row by its position in
    the stack, so the mean matches the single payoff's to rounding only."""
    rng = np.random.default_rng(seed)
    n = lat.n_steps
    t = int(rng.integers(0, n))
    X = rng.normal(size=(k, lat.num_nodes(t + 1)))
    Y = rng.normal(size=(k, lat.num_nodes(t)))
    children = lat.children(X.ravel()).reshape(k, len(Y[0]), -1)
    spread_flat = lat.spread(Y.ravel(), n - t).reshape(k, -1)
    spread_rows = lat.spread(Y, n - t)
    for r in range(k):
        assert children[r].tobytes() == lat.children(X[r]).tobytes()
        assert spread_flat[r].tobytes() == lat.spread(Y[r], n - t).tobytes()
        assert spread_rows[r].tobytes() == lat.spread(Y[r], n - t).tobytes()
    expect = lat.expect(t, X.ravel()).reshape(k, -1)
    for r in range(k):
        np.testing.assert_allclose(expect[r], lat.expect(t, X[r]), rtol=1e-15, atol=1e-15)
    other = X.copy()
    other[1:] = rng.normal(size=other[1:].shape)
    assert lat.expect(t, other.ravel()).reshape(k, -1)[0].tobytes() == expect[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(lattices(), st.integers(0, 2 ** 32 - 1))
def test_extend_builds_the_path_functionals_bit_for_bit(lat, seed):
    """``extend`` moves values to the children the path enumeration names, and
    the Brownian states, jump counts and node probabilities are the per-path
    running sums and products in step order."""
    rng = np.random.default_rng(seed)
    n, d, m, paths = lat.n_steps, lat.noise.d, lat.noise.jumps.m, enumerate_paths(lat)
    onehot = np.eye(m + 1)[lat.outcome_labels][:, 1:]
    for t in range(n + 1):
        prefixes = _node_prefixes(paths, t)
        w, counts, probs = [], [], []
        for prefix in prefixes:
            w_v, c_v, p_v = np.zeros(d), np.zeros(m), 1.0
            for i, o in enumerate(prefix):
                w_v = w_v + lat.step_dw(i)[o]
                c_v = c_v + onehot[o]
                p_v = p_v * lat.step_probs(i)[o]
            w.append(w_v)
            counts.append(c_v)
            probs.append(p_v)
        assert lat.brownian_states(t).tobytes() == np.array(w).tobytes()
        assert lat.jump_counts(t).tobytes() == np.array(counts).tobytes()
        assert lat.node_probabilities(t).tobytes() == np.array(probs).tobytes()
        if t == n:
            break
        below = {prefix: a for a, prefix in enumerate(_node_prefixes(paths, t + 1))}
        b = lat.branching
        parents = rng.normal(size=(len(prefixes), 2))
        # outcome rows shared by every node, as in the path sums, and one
        # row of outcomes per node, as in ``assemble``
        rows, per_node = rng.normal(size=(b, 2)), rng.normal(size=(len(prefixes), b))
        got_rows = lat.extend(parents, rows)
        got_node = lat.extend(parents[:, 0], per_node, np.multiply)
        for a, prefix in enumerate(prefixes):
            for o in range(b):
                child = below[prefix + (o,)]
                assert got_rows[child].tobytes() == (parents[a] + rows[o]).tobytes()
                assert got_node[child] == parents[a, 0] * per_node[a, o]
