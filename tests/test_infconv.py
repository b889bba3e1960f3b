"""Closed-form inf-convolution of the Variance/NormCD/Scaled family against the
numeric oracle and against the algebra any inf-convolution satisfies."""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from devlat import (
    CVaRJump,
    InfConv,
    JumpMeasure,
    NormCD,
    Scaled,
    SolverConfig,
    Variance,
    eval_driver,
    infconv_split,
    infconv_value,
    radial_form,
)

EMPTY = JumpMeasure.empty()
NU = JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7))
ORACLE = SolverConfig(polish_iterations=1000)

#: radii at a Huber knee, just inside it and just beyond it; None draws freely
KNEE_FACTORS = (0.99, 0.999, 1.0, 1.001, 1.01, None)

positive = st.floats(0.3, 3.0)


@st.composite
def radial_drivers(draw):
    """Variance or NormCD (either coefficient may be 0) under 0-2 scalings."""
    if draw(st.booleans()):
        base = Variance(draw(positive))
    else:
        zero = draw(st.sampled_from(("", "c", "d")))
        c = 0.0 if zero == "c" else draw(st.floats(0.2, 3.0))
        d = 0.0 if zero == "d" else draw(st.floats(0.2, 3.0))
        base = NormCD(c, d)
    for gamma in draw(st.lists(positive, max_size=2)):
        base = Scaled(gamma, base)
    return base


def _knee(ta, tb):
    """Radius where a quadratic/linear block pair leaves its quadratic zone."""
    if ta[0] == tb[0]:
        return None
    q, c = (ta[1], tb[1]) if ta[0] == "quad" else (tb[1], ta[1])
    return c / (2.0 * q) if c > 0 else None


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
    _, brown_a, jump_a = radial_form(g_a)
    _, brown_b, jump_b = radial_form(g_b)
    h = draw(block(d, _knee(brown_a, brown_b)))
    ht = draw(block(nu.m, _knee(jump_a, jump_b), nu.intensity_array))
    return h, ht


@st.composite
def cases(draw):
    g_a, g_b = draw(radial_drivers()), draw(radial_drivers())
    d = draw(st.sampled_from((1, 2)))
    nu = draw(st.sampled_from((EMPTY, NU)))
    h, ht = draw(rows(g_a, g_b, d, nu))
    return g_a, g_b, h, ht, nu


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases())
def test_closed_form_matches_numeric_oracle(case):
    g_a, g_b, h, ht, nu = case
    closed, _ = infconv_value(g_a, g_b, 0.0, h, ht, nu)
    numeric, _ = infconv_value(g_a, g_b, 0.0, h, ht, nu, ORACLE, method="numeric")
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


def test_numeric_only_outside_the_family():
    assert radial_form(Scaled(2.0, Scaled(0.5, Variance(3.0))))[1] == ("quad", 3.0)
    assert radial_form(Scaled(4.0, NormCD(1.0, 2.0))) == (4.0, ("lin", 1.0), ("lin", 2.0))
    assert radial_form(CVaRJump(0.5)) is None
    assert radial_form(Scaled(2.0, InfConv(Variance(1.0), Variance(1.0)))) is None


def test_numeric_oracle_steps_stay_bounded():
    # a near-zero Brownian integrand gives a tiny first subgradient and so a
    # long step scale; uncapped, later steeper subgradients threw the iterates
    # to overflow ("overflow encountered in matmul") before the best iterate
    # and the block corners rescued the answer
    args = (Variance(1.87), Variance(2.11), 0.0, np.array([1e-4]), np.array([0.0, 0.0]),
            JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        numeric, _ = infconv_value(*args, SolverConfig(polish_iterations=1000),
                                   method="numeric")
    closed, _ = infconv_value(*args)
    assert abs(numeric - closed) <= 1e-7 * abs(closed)
