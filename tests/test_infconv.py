"""Closed-form inf-convolution of the Variance/NormCD/Scaled/InfConv family
against the numeric oracle and against the algebra any inf-convolution
satisfies."""

import itertools
import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devlat import (
    CVaRJump,
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
    build_lattice,
    eval_driver,
    infconv_split,
    infconv_value,
    proportional_share_factor,
    sharing,
    solve_sharing,
)

from oracles import (
    merge_terms,
    numeric_infconv_value,
    quadratic_cvar_infconv_reference,
    radial_infconv_reference,
    radial_terms,
)

EMPTY = JumpMeasure.empty()
NU = JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7))
ORACLE = SolverConfig(polish_iterations=1000)

#: radii at a Huber knee, just inside it and just beyond it; None draws freely
KNEE_FACTORS = (0.99, 0.999, 1.0, 1.001, 1.01, None)

positive = st.floats(0.3, 3.0)


@st.composite
def radial_drivers(draw, max_scalings=2):
    """Variance or NormCD (either coefficient may be 0) under 0-2 scalings."""
    if draw(st.booleans()):
        base = Variance(draw(positive))
    else:
        zero = draw(st.sampled_from(("", "c", "d")))
        c = 0.0 if zero == "c" else draw(st.floats(0.2, 3.0))
        d = 0.0 if zero == "d" else draw(st.floats(0.2, 3.0))
        base = NormCD(c, d)
    for gamma in draw(st.lists(positive, max_size=max_scalings)):
        base = Scaled(gamma, base)
    return base


def _knee(ta, tb):
    """Radius where a block pair with both a quadratic and a positive linear
    term leaves its quadratic zone."""
    q, c = merge_terms(ta, tb)
    return c / (2.0 * q) if q < math.inf and 0.0 < c < math.inf else None


@st.composite
def block(draw, size, knee, weights=None):
    """A vector of ``size`` entries whose (weighted) norm sits at, near or
    away from ``knee``."""
    if size == 0:
        return np.zeros(0)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)))
    w = np.ones(size) if weights is None else weights
    norm = math.sqrt(float((u * u) @ w))
    if norm < 1e-3:
        u, norm = np.eye(size)[0], math.sqrt(w[0])
    factor = draw(st.sampled_from(KNEE_FACTORS))
    radius = knee * factor if knee and factor else draw(st.floats(0.0, 3.0))
    return u / norm * radius


@st.composite
def rows(draw, g_a, g_b, d, nu):
    brown_a, jump_a = radial_terms(g_a)
    brown_b, jump_b = radial_terms(g_b)
    h = draw(block(d, _knee(brown_a, brown_b)))
    ht = draw(block(nu.m, _knee(jump_a, jump_b), nu.intensity_array))
    return h, ht


@st.composite
def radial_trees(draw, depth=3):
    """A ``Variance`` or ``NormCD`` leaf, or a ``Scaled`` or ``InfConv`` node
    over such trees, at most ``depth`` nodes deep."""
    kind = draw(st.sampled_from(("leaf", "scaled", "infconv"))) if depth else "leaf"
    if kind == "scaled":
        return Scaled(draw(positive), draw(radial_trees(depth - 1)))
    if kind == "infconv":
        return InfConv(draw(radial_trees(depth - 1)), draw(radial_trees(depth - 1)))
    return draw(radial_drivers(max_scalings=0))


@st.composite
def cases(draw):
    """Two radial driver trees, d in (1, 2), m in (0, 2), and one row whose
    radii sit at, near or away from each block's Huber knee."""
    g_a, g_b = draw(radial_trees()), draw(radial_trees())
    d = draw(st.sampled_from((1, 2)))
    nu = draw(st.sampled_from((EMPTY, NU)))
    h, ht = draw(rows(g_a, g_b, d, nu))
    return g_a, g_b, h, ht, nu


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_tree_closed_form_is_the_merged_huber(case):
    """Any radial tree pair is one Huber term per block, whose coefficients
    ``oracles.radial_terms`` reads off the driver parameters."""
    g_a, g_b, h, ht, nu = case
    value, _ = infconv_value(g_a, g_b, 0.0, h, ht, nu)
    want = radial_infconv_reference(g_a, g_b, h, ht, nu.intensity_array)
    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases(), radial_trees(), positive)
def test_tree_algebra(case, g_c, gamma):
    """Associativity, and ``Scaled`` distributing over ``InfConv``
    (commutativity is the swap test below)."""
    g_a, g_b, h, ht, nu = case

    def value(x, y):
        return infconv_value(x, y, 0.0, h, ht, nu)[0]

    pairs = [(value(InfConv(g_a, g_b), g_c), value(g_a, InfConv(g_b, g_c))),
             (value(Scaled(gamma, InfConv(g_a, g_b)), g_c),
              value(InfConv(Scaled(gamma, g_a), Scaled(gamma, g_b)), g_c))]
    for got, want in pairs:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases())
def test_closed_form_matches_numeric_oracle(case):
    g_a, g_b, h, ht, nu = case
    closed, _ = infconv_value(g_a, g_b, 0.0, h, ht, nu)
    numeric, _ = numeric_infconv_value(g_a, g_b, 0.0, h, ht, nu, ORACLE)
    assert abs(closed - numeric) <= 1e-7 * max(1.0, abs(closed))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases())
def test_closed_form_below_either_driver_and_swap_symmetric(case):
    g_a, g_b, h, ht, nu = case
    value, (z, zt) = infconv_value(g_a, g_b, 0.0, h, ht, nu)
    alone = min(eval_driver(g_a, 0.0, h, ht, nu), eval_driver(g_b, 0.0, h, ht, nu))
    assert value <= alone + 1e-12 * max(1.0, alone)
    swapped, (zs, zts) = infconv_value(g_b, g_a, 0.0, h, ht, nu)
    assert abs(swapped - value) <= 1e-12 * max(1.0, value)
    scale = max(1.0, float(np.abs(np.concatenate([h, ht])).max(initial=0.0)))
    np.testing.assert_allclose(zs, h - z, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(zts, ht - zt, rtol=0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_level_split_equals_row_split_bitwise(data):
    g_a, g_b = data.draw(radial_drivers()), data.draw(radial_drivers())
    d = data.draw(st.sampled_from((1, 2)))
    nu = data.draw(st.sampled_from((EMPTY, NU)))
    level = data.draw(st.lists(rows(g_a, g_b, d, nu), min_size=1, max_size=6))
    H = np.array([h for h, _ in level])
    Ht = np.array([ht for _, ht in level]).reshape(len(level), nu.m)
    Z, Zt = infconv_split(g_a, g_b, 0.0, H, Ht, nu)
    for v in range(len(level)):
        z, zt = infconv_split(g_a, g_b, 0.0, H[v:v + 1], Ht[v:v + 1], nu)
        assert Z[v].tobytes() == z[0].tobytes()
        assert Zt[v].tobytes() == zt[0].tobytes()


def test_block_shares_follow_the_closed_forms():
    h, ht = np.array([[3.0]]), np.array([[0.0, 0.0]])
    # quadratic pair: harmonic split q_a / (q_a + q_b), Scaled dividing q by gamma
    z, _ = infconv_split(Variance(1.0), Scaled(2.0, Variance(1.0)), 0.0, h, ht, NU)
    assert z[0, 0] == 3.0 * (1.0 / 1.5)
    # linear pair: everything to the cheaper slope; a tie splits by gamma
    z, _ = infconv_split(NormCD(2.0, 1.0), NormCD(1.0, 1.0), 0.0, h, ht, NU)
    assert z[0, 0] == 3.0
    z, _ = infconv_split(Scaled(1.0, NormCD(1.0, 1.0)), Scaled(3.0, NormCD(1.0, 1.0)),
                         0.0, h, ht, NU)
    assert z[0, 0] == 3.0 * 0.75
    # quadratic A, linear B beyond the knee c/(2q) = 0.5: A keeps the knee
    z, _ = infconv_split(Variance(1.0), NormCD(1.0, 1.0), 0.0, h, ht, NU)
    assert z[0, 0] == 3.0 * (1.0 - 1.0 / 6.0)
    # inside the knee the linear side takes nothing; the mirror takes c/(2q)
    z, _ = infconv_split(Variance(1.0), NormCD(1.0, 1.0), 0.0, h / 10, ht, NU)
    assert z[0, 0] == 0.0
    z, _ = infconv_split(NormCD(1.0, 1.0), Variance(1.0), 0.0, h, ht, NU)
    assert z[0, 0] == 3.0 * (1.0 / 6.0)


def test_numeric_only_outside_the_family(monkeypatch):
    """Radial trees of any depth split without the minimiser; a pooled pair
    with a ``CVaRJump`` atom takes one solve per row, and the solves of a
    mixed tree never nest."""
    calls, depth = [], [0]
    real = sharing.minimize

    def counted(*args):
        depth[0] += 1
        calls.append(depth[0])
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(sharing, "minimize", counted)
    # small solver settings, so that a solve inside a solve ends quickly
    small = SolverConfig(max_iterations=20, stall_window=5, polish_iterations=0)
    H = np.array([[0.7], [-1.3], [0.2]])
    Ht = np.array([[0.4, -0.9], [1.1, 0.3], [-0.5, 0.6]])
    radial = (Scaled(2.0, Scaled(0.5, Variance(3.0))), Scaled(4.0, NormCD(1.0, 2.0)),
              Scaled(2.0, InfConv(Variance(1.0), Variance(1.0), small)),
              InfConv(InfConv(Variance(1.0), NormCD(1.0, 0.5), small),
                      Scaled(3.0, Variance(2.0)), small))
    for g_a, g_b in itertools.product(radial, repeat=2):
        infconv_split(g_a, g_b, 0.0, H, Ht, NU, small)
        infconv_value(g_a, g_b, 0.0, H[0], Ht[0], NU, small)
        assert calls == [], (g_a, g_b)
    # Scaled multiplies out (q = 3 / (2 * 0.5)) and leaves slopes alone
    assert proportional_share_factor(radial[0], Variance(1.0)) == 0.75
    assert proportional_share_factor(radial[1], NormCD(1.0, 2.0)) == 0.2
    Z, Zt = infconv_split(radial[1], NormCD(1.5, 1.5), 0.0, H, Ht, NU)
    assert not Z.any() and np.array_equal(Zt, Ht)
    assert proportional_share_factor(radial[2], Variance(1.0)) == 0.2

    infconv_split(Variance(1.0), CVaRJump(0.5), 0.0, H, Ht, NU)
    assert calls == [1, 1, 1]
    calls.clear()
    inner = InfConv(Variance(1.0), CVaRJump(0.4), small)
    infconv_value(inner, Variance(2.0), 0.0, H[0], Ht[0], NU, small)
    assert 1 <= len(calls) <= 2 and max(calls) == 1


def test_numeric_oracle_steps_stay_bounded():
    # a near-zero Brownian integrand gives a tiny first subgradient and so a
    # long step scale; uncapped, later steeper subgradients threw the iterates
    # to overflow ("overflow encountered in matmul") before the best iterate
    # and the block corners rescued the answer
    args = (Variance(1.87), Variance(2.11), 0.0, np.array([1e-4]), np.array([0.0, 0.0]),
            JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        numeric, _ = numeric_infconv_value(*args, SolverConfig(polish_iterations=1000))
    closed, _ = infconv_value(*args)
    assert abs(numeric - closed) <= 1e-7 * abs(closed)


def test_quadratic_cvar_pairs_reach_the_exact_infimum():
    """``Variance`` and ``Scaled(Variance)`` with ``CVaRJump`` take the
    numeric path; on 12 seeded rows its value is within 1e-3 (relative) of
    the exact inf-convolution of the quadratic jump term with CVaR."""
    rng = np.random.default_rng(0)
    for k in range(12):
        alpha, gamma = np.round(rng.uniform(0.5, 2.0), 3), np.round(rng.uniform(0.5, 3.0), 3)
        a = float(np.round(rng.uniform(0.15, 0.85), 3))
        h, ht = np.round(rng.normal(size=1), 3), np.round(rng.normal(size=2), 3)
        g_a, q = (Scaled(gamma, Variance(alpha)), alpha / gamma) if k % 2 == 0 \
            else (Variance(alpha), alpha)
        value, _ = infconv_value(g_a, CVaRJump(a), 0.0, h, ht, NU)
        exact = quadratic_cvar_infconv_reference(q, a, ht, NU.intensity_array)
        assert abs(value - exact) <= 1e-3 * max(1.0, abs(exact)), (k, value, exact)


def test_pooled_quadratic_cvar_trees_reach_the_exact_infimum():
    """Trees of ``Variance`` and ``CVaRJump`` atoms pool their quadratic
    atoms into one term with ``q = q_1 q_2 / (q_1 + q_2)`` and solve it
    against the ``CVaRJump`` atom; B's share of the pooled split, including
    its part of a group both agents hold, leaves the value within 1e-3
    (relative) of the exact inf-convolution."""
    h, ht = np.array([0.7]), np.array([0.4, -0.9])
    cases = [(InfConv(Variance(1.0), CVaRJump(0.4)), Variance(2.0), 2.0 / 3.0, 0.4),
             (Variance(2.0), InfConv(CVaRJump(0.4), Variance(1.0)), 2.0 / 3.0, 0.4),
             (InfConv(Variance(1.5), CVaRJump(0.3)), Scaled(2.0, Variance(1.5)), 0.5, 0.3)]
    for g_a, g_b, q, a in cases:
        value, _ = infconv_value(g_a, g_b, 0.0, h, ht, NU)
        exact = quadratic_cvar_infconv_reference(q, a, ht, NU.intensity_array)
        assert abs(value - exact) <= 1e-3 * max(1.0, abs(exact)), (g_a, g_b, value, exact)


#: integrand entries, with zeros of both signs and entries whose squares underflow
ENTRIES = st.one_of(st.floats(-4.0, 4.0), st.sampled_from((0.0, -0.0, 1e-170, -1e-170)))


def _scale(base, gammas):
    for gamma in gammas:
        base = Scaled(gamma, base)
    return base


@st.composite
def fixed_share_pairs(draw):
    """``(g_a, g_b, f)``: two scalings of one ``Variance``, ``NormCD`` or
    ``CVaRJump`` base, or of one ``InfConv`` of two such bases, with ``f =
    gamma_b / (gamma_a + gamma_b)``; two quadratic drivers of distinct bases,
    A's possibly an ``InfConv`` of two, with ``f = q_a / (q_a + q_b)``; or two
    drivers of the radial family with ``f`` None (a fraction need not
    exist)."""
    kind = draw(st.sampled_from(("common", "quadratic", "radial", "nested")))
    if kind == "radial":
        return draw(radial_drivers()), draw(radial_drivers()), None
    scalings = st.lists(positive, max_size=2)
    gammas_a, gammas_b = draw(scalings), draw(scalings)
    nested = kind == "nested" and draw(st.booleans())
    if kind == "common" or nested:
        bases = st.one_of(
            positive.map(Variance),
            st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)).filter(any)
            .map(lambda cd: NormCD(*cd)),
            st.floats(0.05, 1.0).map(CVaRJump),
        )
        base = InfConv(draw(bases), draw(bases)) if nested else draw(bases)
        gamma_a, gamma_b = math.prod(reversed(gammas_a)), math.prod(reversed(gammas_b))
        return _scale(base, gammas_a), _scale(base, gammas_b), gamma_b / (gamma_a + gamma_b)
    alphas = draw(st.lists(positive, min_size=3, max_size=3, unique=True))
    tree_a = Variance(alphas[0])
    if kind == "nested":
        tree_a = InfConv(tree_a, _scale(Variance(alphas[2]), draw(scalings)))
    g_a, g_b = _scale(tree_a, gammas_a), _scale(Variance(alphas[1]), gammas_b)
    q_a, q_b = radial_terms(g_a)[0][0], radial_terms(g_b)[0][0]
    return g_a, g_b, q_a / (q_a + q_b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fixed_share_pairs(), st.data())
def test_share_factor_is_the_applied_split(pair, data):
    """Common-base and quadratic pairs report their fraction ``f``, and
    whenever ``proportional_share_factor`` reports one, ``infconv_split`` hands
    B exactly ``f * H`` and ``f * Ht``."""
    g_a, g_b, want = pair
    f = proportional_share_factor(g_a, g_b)
    if want is not None:
        assert f == want
    if f is None:
        return
    d = data.draw(st.sampled_from((1, 2)))
    nu = data.draw(st.sampled_from((EMPTY, NU)))
    n = data.draw(st.integers(1, 5))
    H = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=d, max_size=d),
                                    min_size=n, max_size=n)))
    Ht = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=nu.m, max_size=nu.m),
                                     min_size=n, max_size=n))).reshape(n, nu.m)
    Z, Zt = infconv_split(g_a, g_b, 0.0, H, Ht, nu)
    assert Z.tobytes() == (f * H).tobytes()
    assert Zt.tobytes() == (f * Ht).tobytes()


#: two steps of dt 0.25 under a total intensity of 2, so every ``CVaRJump``
#: level the pair strategies draw lies inside (0, 2)
SHARE_LATTICE = build_lattice(TimeGrid.uniform(2, 0.5),
                              NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.6, 1.4))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(fixed_share_pairs().map(lambda p: p[:2]), cases().map(lambda c: c[:2])),
       st.integers(0, 2**32 - 1))
def test_solution_share_factor_is_the_pair_reading(pair, seed):
    """``SharingSolution.share_factor``, read from the solve's own split plan,
    is ``proportional_share_factor`` of the pair, a fraction or None."""
    g_a, g_b = pair
    lat, rng = SHARE_LATTICE, np.random.default_rng(seed)
    x_a, x_b = (RandomVariable(rng.normal(size=lat.num_nodes(2)), 2) for _ in range(2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # unbounded pairs overflow
        sol = solve_sharing(lat, SharingProblem(x_a, x_b, g_a, g_b))
    assert sol.share_factor == proportional_share_factor(g_a, g_b)
