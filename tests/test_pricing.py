"""Price and welfare of a sharing solve, taken from its own split, against the
re-representation of every position (``oracles``), and the paper's sharing
identities: the agents' post-transfer deviations add up to the
inf-convolution, and B's participation constraint binds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from devlat import CVaRJump, JumpMeasure, NoiseModel, NormCD, RandomVariable, Scaled, \
    SharingProblem, SolverConfig, TimeGrid, Variance, build_lattice, solve_sharing
from oracles import sharing_pricing_by_representation

#: "a few ulps" of the deviation scale
ULPS = 8 * np.finfo(float).eps

#: pricing from the split against re-representation, relative to the scale
ORACLE_TOL = 1e-14

JUMPS = JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))

#: a short numeric solve: the pricing and the identities hold at any split, so
#: the numeric path needs to run, not to converge
SHORT_SOLVE = SolverConfig(max_iterations=60, stall_window=20, polish_iterations=4)

positive = st.floats(0.25, 4.0)


def _family(draw):
    kind = draw(st.sampled_from(["variance", "norm_cd", "scaled_variance",
                                 "scaled_norm_cd"]))
    if kind.endswith("variance"):
        base = Variance(draw(positive))
    else:
        base = NormCD(draw(positive), draw(positive))
    return Scaled(draw(positive), base) if kind.startswith("scaled") else base


#: (lattice shape, driver pair): closed-form pairs, two scalings of one base,
#: and ``CVaRJump`` against a quadratic driver on either side (numeric path)
CASES = [(shape, pair) for shape in ("binomial", "d2", "jump")
         for pair in ("closed", "common_base")] + [("jump", "cvar_a"), ("jump", "cvar_b")]


@st.composite
def problems(draw, shape, pair):
    """A lattice of the given shape, two payoffs on it and a driver pair."""
    if shape == "binomial":
        noise, n = NoiseModel.brownian(1), draw(st.integers(1, 5))
    elif shape == "d2":
        noise, n = NoiseModel.brownian(2), draw(st.integers(1, 3))
    else:  # the numeric path solves node by node, so keep its lattices small
        noise = NoiseModel(1, JUMPS)
        n = 2 if pair.startswith("cvar") else draw(st.integers(2, 3))
    lat = build_lattice(TimeGrid.uniform(n, 1.0), noise)

    solver = SolverConfig()
    if pair == "closed":
        g_a, g_b = _family(draw), _family(draw)
    elif pair == "common_base":
        bases = [Variance(draw(positive)), NormCD(draw(positive), draw(positive))]
        if shape == "jump":
            bases.append(CVaRJump(draw(st.floats(0.1, 0.7))))
        base = draw(st.sampled_from(bases))
        g_a, g_b = Scaled(draw(positive), base), Scaled(draw(positive), base)
    else:
        quad = Scaled(draw(positive), Variance(draw(positive)))
        cvar = CVaRJump(draw(st.floats(0.1, 0.7)))
        g_a, g_b = (quad, cvar) if pair == "cvar_b" else (cvar, quad)
        solver = SHORT_SOLVE

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    leaves, scale = lat.num_nodes(n), draw(st.floats(0.1, 10.0))
    x_a = RandomVariable(scale * rng.normal(size=leaves), n)
    x_b = RandomVariable(scale * rng.normal(size=leaves), n)
    return lat, SharingProblem(x_a, x_b, g_a, g_b, solver)


def _scale(sol):
    return max(1.0, abs(sol.d0_a) + abs(sol.d0_b))


@pytest.mark.parametrize("shape, pair", CASES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_price_and_welfare_match_re_representation(shape, pair, data):
    lat, prob = data.draw(problems(shape, pair))
    sol = solve_sharing(lat, prob)
    want = sharing_pricing_by_representation(lat, prob, sol)
    tol = ORACLE_TOL * _scale(sol)
    assert abs(sol.price - want["price"]) <= tol
    assert abs(sol.du_a - want["du_a"]) <= tol
    assert abs(sol.du_b - want["du_b"]) <= tol


@pytest.mark.parametrize("shape, pair", CASES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_post_transfer_deviations_sum_to_the_inf_convolution(shape, pair, data):
    lat, prob = data.draw(problems(shape, pair))
    sol = solve_sharing(lat, prob)
    want = sharing_pricing_by_representation(lat, prob, sol)
    tol = ULPS * _scale(sol)
    assert abs(want["dev_a"] + want["dev_b"] - sol.infconv_d.d0) <= tol
    # participation binds: B's utility is unchanged by the priced transfer
    assert abs(sol.du_b) <= tol
