"""Level- and batch-wide paths against the one-row, one-point and one-node
loops they replace (``tests/oracles.py``): the sorted-tail CVaR, merged laws,
keyed path permutations, the batched driver checker and the stacked axiom
probes."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devlat.deviation as deviation
from devlat import (
    CVaRJump,
    Custom,
    InfConv,
    JumpMeasure,
    NoiseModel,
    NormCD,
    RandomVariable,
    Scaled,
    TimeGrid,
    Variance,
    axiom_report,
    build_lattice,
    check_driver,
    cvar_nu,
    eval_driver,
    law,
    law_distance,
    permute_paths,
    var_nu,
)

from oracles import (
    axiom_report_reference,
    check_driver_reference,
    cvar_nu_reference,
    driver_subgradient_reference,
    driver_value_reference,
    law_reference,
    norm_cd_batch_by_linalg,
    var_nu_reference,
)

# -- sorted-tail CVaR ---------------------------------------------------------------

#: few distinct values, so rows tie often; both zeros and subnormals included
TIE_POOL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 5e-324, -1e-300, 0.1, -0.7]
MASS_POOL = [0.1, 0.25, 0.5, 0.3, 1 / 3, 0.2]


@st.composite
def tail_cases(draw):
    m = draw(st.integers(1, 5))
    masses = draw(st.lists(st.sampled_from(MASS_POOL), min_size=m, max_size=m))
    nu = JumpMeasure(tuple((float(j + 1),) for j in range(m)), tuple(masses))
    rows = draw(st.integers(1, 12))
    cell = st.one_of(st.sampled_from(TIE_POOL),
                     st.floats(-10, 10, allow_nan=False, allow_subnormal=True))
    Ht = np.array(draw(st.lists(st.lists(cell, min_size=m, max_size=m),
                                min_size=rows, max_size=rows)))
    # a level at a cumulative tail mass, where an atom is cut exactly, or inside
    order = draw(st.permutations(range(m)))
    boundaries = [a for a in np.cumsum(np.asarray(masses)[list(order)])[:-1]
                  if 0.0 < a < nu.total_intensity]
    inside = st.floats(1e-6, nu.total_intensity, exclude_max=True)
    a = draw(st.sampled_from(boundaries) | inside if boundaries else inside)
    return nu, Ht, float(a)


@settings(max_examples=200, deadline=None)
@given(tail_cases())
def test_cvar_batch_is_the_row_loop_bit_for_bit(case):
    nu, Ht, a = case
    batch = CVaRJump(a).value_batch(0.0, np.zeros((len(Ht), 1)), Ht, nu)
    rows = np.array([cvar_nu_reference(a, row, nu) for row in Ht])
    assert batch.tobytes() == rows.tobytes()
    assert np.array([cvar_nu(a, row, nu) for row in Ht]).tobytes() == rows.tobytes()
    # the quantile walks the same atoms; +0.0 and -0.0 are one atom
    assert [var_nu(a, row, nu) for row in Ht] == [var_nu_reference(a, row, nu)
                                                  for row in Ht]


def test_cvar_ties_are_summed_in_mark_order():
    # three tied losses whose masses round differently in another order
    nu = JumpMeasure(((1.0,), (2.0,), (3.0,), (4.0,)), (0.1, 0.2, 0.3, 0.4))
    a = 0.1 + 0.2 + 0.3
    Ht = np.array([[-1.0, -1.0, -1.0, 2.0], [2.0, -1.0, -1.0, -1.0]])
    want = [cvar_nu_reference(a, row, nu) for row in Ht]
    assert CVaRJump(a).value_batch(0.0, Ht[:, :1], Ht, nu).tolist() == want


# -- laws ---------------------------------------------------------------------------


def _lattice(d, m, n, intensities=(0.25, 0.5)):
    marks = tuple((float(j + 1) * (-1) ** j,) for j in range(m))
    jumps = JumpMeasure(marks, intensities[:m]) if m else JumpMeasure.empty()
    return build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel(d, jumps))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(1, 0, 4), (1, 2, 2), (2, 0, 2), (0, 2, 3)]),
       st.integers(0, 2 ** 32 - 1),
       st.sampled_from([None, 0.0, 1e-10, 3e-10, 0.5]))
def test_law_is_the_leaf_loop_bit_for_bit(shape, seed, merge_tol):
    lat = _lattice(*shape)
    rng = np.random.default_rng(seed)
    leaves = lat.num_nodes(lat.n_steps)
    # a few base values plus 1e-10 steps: chains of near-ties longer than
    # the tolerance end to end, but linked pair by pair
    values = rng.integers(0, 4, size=leaves) + 1e-10 * rng.integers(0, 6, size=leaves)
    if seed % 3 == 0:
        values = rng.normal(size=leaves)
    x = RandomVariable(values, lat.n_steps)
    got, want = law(lat, x, merge_tol), law_reference(lat, x, merge_tol)
    assert got.atoms.tobytes() == want.atoms.tobytes()
    assert got.probs.tobytes() == want.probs.tobytes()


def test_law_merges_a_chain_pair_by_pair():
    lat = _lattice(1, 0, 2)
    x = RandomVariable(np.array([0.0, 0.25, 0.5, 5.0]), 2)
    # every step is within 0.3, the chain end to end is not
    assert law(lat, x, 0.3).atoms.tolist() == [0.25, 5.0]
    assert law(lat, x, 0.0).atoms.tolist() == [0.0, 0.25, 0.5, 5.0]


# -- path permutations ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(0.25, 0.25), (0.25, 0.5), (0.125, 0.125)]))
def test_permute_paths_is_a_law_preserving_tree_map(seed, intensities):
    # equal intensities make outcome groups of sizes 2 and 4 on one step
    lat = _lattice(1, 2, 3, intensities)
    leaves = lat.num_nodes(3)
    rng = np.random.default_rng(seed)
    index = permute_paths(lat, RandomVariable(np.arange(leaves, dtype=float), 3), rng)
    sigma = index.values.astype(np.int64)
    assert sorted(sigma.tolist()) == list(range(leaves))
    probs = lat.node_probabilities(3)
    assert probs[sigma].tobytes() == probs.tobytes()
    # a tree map: leaves under one node map under one node, at every level
    for level in range(1, 3):
        span = lat.branching ** (3 - level)
        parents = (sigma // span).reshape(-1, span)
        assert np.all(parents == parents[:, :1])
    x = RandomVariable(rng.normal(size=leaves), 3)
    permuted = permute_paths(lat, x, rng)
    assert law_distance(law(lat, x), law(lat, permuted)) == 0.0


def test_permute_paths_draws_one_key_block_per_level():
    lat = _lattice(1, 2, 2)
    x = RandomVariable(np.arange(lat.num_nodes(2), dtype=float), 2)
    rng = np.random.default_rng(3)
    permute_paths(lat, x, rng)
    replay = np.random.default_rng(3)
    replay.random((1, lat.branching))
    replay.random((lat.branching, lat.branching))
    assert rng.random() == replay.random()


# -- driver checker -----------------------------------------------------------------

NU2 = JumpMeasure(((-1.0,), (2.0,)), (0.3, 0.7))


def _concave(t, h, ht, nu):
    return float(np.sqrt(np.abs(h).sum() + np.abs(ht).sum()))


def _concave_subgradient(t, h, ht, nu):
    r = np.sqrt(np.abs(h).sum() + np.abs(ht).sum())
    g = np.concatenate([np.sign(h), np.sign(ht)])
    return g / (2 * r) if r > 0 else np.zeros_like(g)


def _square(t, h, ht, nu):
    return float(h @ h + ht @ ht)


def _wrong_subgradient(t, h, ht, nu):
    # the gradient of the square, of the wrong sign in h
    return np.concatenate([-2 * h, 2 * ht])


def _partial_subgradient(t, h, ht, nu):
    if h[0] > 1.0:
        raise ValueError(f"no subgradient at h = {h[0]!r}")
    # wrong where h is far below zero, so a violation can come first
    return np.concatenate([2 * h if h[0] > -2.0 else 0 * h, 2 * ht])


#: three marks in two dimensions, probed with no Brownian part
NU3 = JumpMeasure(((1.0, 2.0), (0.5, -1.0), (3.0, 0.0)), (0.1, 0.2, 0.3))

CHECKED = {
    "variance": (Variance(1.3), 1, NU2),
    "norm_cd_d1": (NormCD(1.0, 0.5), 1, NU2),
    "norm_cd_d2": (NormCD(0.75, 2.0), 2, NU2),
    "scaled": (Scaled(2.0, Variance(0.5)), 2, NU2),
    "cvar_jump": (CVaRJump(0.5), 1, NU2),
    "cvar_jump_d0": (CVaRJump(0.2), 0, NU3),
    "concave": (Custom(_concave, _concave_subgradient, "concave"), 1, NU2),
    "no_subgradient": (Custom(_square), 1, NU2),
    "infconv": (InfConv(Variance(1.0), NormCD(1.0, 0.5)), 1, NU2),
    "wrong_subgradient": (Custom(_square, _wrong_subgradient, "wrong"), 1, NU2),
    "partial_subgradient": (Custom(_square, _partial_subgradient, "partial"), 1, NU2),
}


def _same(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    elif isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    elif isinstance(want, float):
        # a stack of rows may round apart from one row in the last bits
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CHECKED)), st.integers(0, 10_000), st.integers(1, 80))
def test_check_driver_matches_the_scalar_checker(name, seed, samples):
    spec, d, nu = CHECKED[name]
    got = check_driver(spec, nu, sample_count=samples, seed=seed, d=d)
    want = check_driver_reference(spec, nu, sample_count=samples, seed=seed, d=d)
    assert got.samples_used == want.samples_used
    for field in ("nonnegativity", "zero_at_zero", "zero_only_at_zero", "convexity",
                  "subgradient_consistency"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g.passed, g.vacuous, g.detail) == (w.passed, w.vacuous, w.detail), field
        _same(g.witness, w.witness)


def test_check_driver_verdicts_per_kind():
    verdicts = {name: check_driver(spec, nu, sample_count=120, seed=4, d=d)
                for name, (spec, d, nu) in CHECKED.items()}
    assert all(verdicts[k].all_passed()
               for k in ("variance", "norm_cd_d1", "norm_cd_d2", "scaled", "infconv"))
    assert not verdicts["cvar_jump"].nonnegativity.passed
    assert not verdicts["cvar_jump_d0"].nonnegativity.passed
    assert not verdicts["concave"].convexity.passed
    # the concave driver's subgradient loop starts where the convexity loop
    # stopped, which the scalar checker's witness pins down
    want = check_driver_reference(CHECKED["concave"][0], NU2, sample_count=120, seed=4)
    _same(verdicts["concave"].subgradient_consistency.witness,
          want.subgradient_consistency.witness)
    assert verdicts["no_subgradient"].subgradient_consistency.detail.startswith("skipped")
    # a user oracle's rows and values are the scalar checker's, so its
    # witness gap keeps every bit
    wrong = verdicts["wrong_subgradient"].subgradient_consistency
    want = check_driver_reference(CHECKED["wrong_subgradient"][0], NU2, sample_count=120,
                                  seed=4).subgradient_consistency
    assert not wrong.passed and wrong.witness[2] == want.witness[2]
    _same(wrong.witness, want.witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 80))
def test_check_driver_meets_a_raising_oracle_where_the_scalar_checker_does(seed, samples):
    """Whichever comes first in draw order, a violation or an oracle raising,
    is the verdict, as one pair at a time would find it."""
    spec = CHECKED["partial_subgradient"][0]
    got = check_driver(spec, NU2, sample_count=samples, seed=seed).subgradient_consistency
    want = check_driver_reference(spec, NU2, sample_count=samples,
                                  seed=seed).subgradient_consistency
    assert (got.passed, got.vacuous, got.detail) == (want.passed, want.vacuous, want.detail)
    _same(got.witness, want.witness)


@pytest.mark.parametrize("seed, threshold", [(0, 1.0), (11, 1.0), (0, 2.0), (5, 3.0)])
def test_check_driver_calls_a_raising_oracle_at_most_3k_plus_3_times(seed, threshold):
    """An oracle first raising at sampled pair k is called by the whole
    batch up to k, once per pair up to k to find it, and once per pair
    before k for the run kept: at most 3k + 3 calls, with the verdict of one
    pair at a time."""
    calls = []

    def oracle(t, h, ht, nu):
        calls.append(h[0])
        if h[0] > threshold:
            raise ValueError(f"no subgradient at h = {h[0]!r}")
        return np.concatenate([2 * h, 2 * ht])

    spec = Custom(_square, oracle, "raising")
    got = check_driver(spec, NU2, sample_count=200, seed=seed).subgradient_consistency
    k = next(i for i, h in enumerate(calls) if h > threshold)  # the batch runs in row order
    assert len(calls) <= 3 * k + 3
    want = check_driver_reference(spec, NU2, sample_count=200, seed=seed).subgradient_consistency
    assert (got.passed, got.vacuous, got.detail) == (want.passed, want.vacuous, want.detail)


#: (driver, d, nu) per kind; NormCD and the kinds built on it take norms
BATCHED = {
    "variance": (Variance(1.3), 2, NU3),
    "norm_cd": (NormCD(0.75, 2.0), 1, NU2),
    "norm_cd_d2": (NormCD(0.75, 2.0), 2, NU3),
    "cvar_jump": (CVaRJump(0.3), 1, NU3),
    "cvar_jump_boundary": (CVaRJump(0.1 + 0.2), 1, NU3),
    "scaled": (Scaled(2.0, CVaRJump(0.25)), 1, NU2),
    "scaled_norm_cd": (Scaled(0.5, NormCD(1.0, 0.5)), 2, NU2),
    "infconv": (InfConv(Variance(1.0), NormCD(1.0, 0.5)), 1, NU2),
    "custom": (Custom(_square, _wrong_subgradient), 2, NU3),
}


def _batched_rows(data, d, nu):
    """Rows at kinks (zero h or zero htilde), zero rows and tied losses."""
    rows = data.draw(st.integers(1, 8))
    cell = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 5e-324])
    H = np.array(data.draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                                    min_size=rows, max_size=rows))).reshape(rows, d)
    Ht = np.array(data.draw(st.lists(st.lists(cell, min_size=nu.m, max_size=nu.m),
                                     min_size=rows, max_size=rows)))
    H[0], Ht[-1] = 0.0, 0.0
    return H, Ht


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BATCHED)), st.data())
def test_subgradient_batch_is_the_scalar_subgradient_per_row(name, data):
    """Against each kind's scalar formula (``tests/oracles.py``), row by row;
    NormCD's norms over two or more terms may round apart, by at most 4 ulps."""
    spec, d, nu = BATCHED[name]
    H, Ht = _batched_rows(data, d, nu)
    got = spec.subgradient_batch(0.0, H, Ht, nu)
    want = np.array([driver_subgradient_reference(spec, 0.0, h, ht, nu)
                     for h, ht in zip(H, Ht)])
    assert got.shape == (len(H), d + nu.m)
    if "norm_cd" in name:
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
    else:
        assert got.tobytes() == want.tobytes()


#: kinds whose values sum no products, so a stack of rows rounds as one row
UNSUMMED = {"cvar_jump", "cvar_jump_boundary", "scaled", "custom"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BATCHED)), st.data())
def test_value_batch_is_the_scalar_value_per_row(name, data):
    """Against each kind's scalar formula (``tests/oracles.py``), row by row.
    One row at a time (``eval_driver``) every bit is kept at d = 1 and for
    ``CVaRJump``; at d >= 2 the Brownian sum of squares may round apart, by at
    most 4 ulps. A stack of rows takes the jump block's sum as one matrix
    product, which may round apart from the one-row product wherever it adds
    two or more terms, also by at most 4 ulps."""
    spec, d, nu = BATCHED[name]
    H, Ht = _batched_rows(data, d, nu)
    want = np.array([driver_value_reference(spec, 0.0, h, ht, nu) for h, ht in zip(H, Ht)])
    one_row = np.array([eval_driver(spec, 0.0, h, ht, nu) for h, ht in zip(H, Ht)])
    got = spec.value_batch(0.0, H, Ht, nu)
    assert got.shape == (len(H),)
    for values, exact in ((one_row, d == 1 or name in UNSUMMED), (got, name in UNSUMMED)):
        if exact:
            assert values.tobytes() == want.tobytes()
        else:
            np.testing.assert_array_max_ulp(values, want, maxulp=4)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20), st.sampled_from([NU2, NU3]), st.integers(0, 2 ** 32 - 1),
       st.floats(0.25, 4.0), st.floats(0.25, 4.0))
def test_norm_cd_batches_are_linalg_norms_bit_for_bit(d, nu, seed, c, dj):
    """Row norms as ``sqrt(add.reduce(H * H))`` are ``np.linalg.norm``'s own
    expression for ``axis=1``, also where the squares overflow or underflow."""
    spec = NormCD(c, dj)
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(0, 64))
    special = np.array([0.0, -0.0, 5e-324, 1e-170, 1e155, -1e300])

    def fill(width):
        a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
        hit = rng.random((rows, width)) < 0.1
        a[hit] = rng.choice(special, size=int(hit.sum()))
        return a

    H, Ht = fill(d), fill(nu.m)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want_value, want_grad = norm_cd_batch_by_linalg(spec, H, Ht, nu)
        assert spec.value_batch(0.0, H, Ht, nu).tobytes() == want_value.tobytes()
        assert spec.subgradient_batch(0.0, H, Ht, nu).tobytes() == want_grad.tobytes()


# -- stacked axiom mixtures -----------------------------------------------------------


def _binomial4():
    return build_lattice(TimeGrid.uniform(4, 1.0), NoiseModel.brownian(1))


AXIOM_DRIVERS = {
    "variance": Variance(1.0),
    "norm_cd": NormCD(1.0, 0.5),
    # concave, and steep enough at zero to fail the continuity probe
    "concave": Custom(lambda t, h, ht, nu: float((np.abs(h).sum()
                                                   + np.abs(ht).sum()) ** 0.25)),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(AXIOM_DRIVERS)), st.integers(0, 10_000),
       st.sampled_from([16, 48, 1 << 14]))
def test_axiom_report_matches_the_per_mixture_loop(name, seed, stack_leaves):
    lat = _binomial4()
    driver = AXIOM_DRIVERS[name]
    rng = np.random.default_rng(seed)
    # x is known after one step: the concave driver's infinite slope at its
    # zero integrands then fails the continuity probe, whose witness shows the
    # rng state after all the mixture weights, however they are chunked
    x = RandomVariable(np.repeat(rng.integers(-3, 4, size=2).astype(float), 8), 4)
    y = RandomVariable(rng.integers(-3, 4, size=16).astype(float), 4)
    # repeated payoffs mix with themselves, so a concave driver's first
    # violation falls at a random mixture, in any chunk
    payoffs = [x, x, x, y]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deviation, "_STACK_LEAVES", stack_leaves)
        got = axiom_report(lat, driver, payoffs, seed=seed, mixtures=20)
    want = axiom_report_reference(lat, driver, payoffs, seed=seed, mixtures=20)
    for field in ("translation", "positivity", "continuity", "recursion", "locality"):
        assert getattr(got, field) == getattr(want, field), field
    g, w = got.convexity, want.convexity
    assert g.passed == w.passed
    if not w.passed:
        assert g.witness["payoffs"] == w.witness["payoffs"]
        assert g.witness["lambda_level"] == w.witness["lambda_level"]
        assert g.witness["violation"] == pytest.approx(w.witness["violation"], rel=1e-12)


def _jump_payoffs(lat):
    n1 = lat.jump_counts(4)[:, 0]
    w = lat.brownian_states(4)[:, 0]
    return [RandomVariable(2 * w - n1, 4), RandomVariable(w * w + 3 * n1, 4)]


def test_axiom_report_on_the_jump_lattice_matches_the_loop(jump_lattice):
    payoffs = _jump_payoffs(jump_lattice)
    for driver in (NormCD(1.0, 1.0), CVaRJump(0.5)):
        got = axiom_report(jump_lattice, driver, payoffs, seed=7)
        want = axiom_report_reference(jump_lattice, driver, payoffs, seed=7)
        assert got.all_passed() == want.all_passed()
        for field in ("translation", "positivity", "continuity", "recursion",
                      "locality"):
            assert getattr(got, field) == getattr(want, field), field
        assert got.convexity.passed == want.convexity.passed
        if not want.convexity.passed:
            assert got.convexity.witness["payoffs"] == want.convexity.witness["payoffs"]
            assert math.isclose(got.convexity.witness["violation"],
                                want.convexity.witness["violation"], rel_tol=1e-12)


def test_axiom_report_runs_single_passes_only_for_the_bit_exact_probes(jump_lattice,
                                                                        monkeypatch):
    """Translation (two shifts per payoff) and the measurable payoff take a
    pass each; the mixtures, the two perturbations and the glued payoff fill
    ``_STACK_LEAVES`` chunks. Every probe pass works on levels ``t..n`` only,
    the sample payoffs take one residual-free pass each, and the recursion
    probe works its cells on the first sample's own conditional means:
    nothing goes through ``represent``, ``evaluate`` or ``evaluate_recursive``."""
    rows, windows, projected, public = [], [], [], []
    stacked, levels, project = deviation._stacked_dev_at, deviation._martingale_levels, \
        deviation._project
    monkeypatch.setattr(deviation, "_stacked_dev_at",
                        lambda lat, g, X, level: rows.append(len(X)) or stacked(lat, g, X, level))
    monkeypatch.setattr(deviation, "_martingale_levels", lambda lat, v, level, lo=0:
                        windows.append(lo) or levels(lat, v, level, lo))
    monkeypatch.setattr(deviation, "_project", lambda lat, mart, lo=0, hi=None:
                        projected.append((lo, hi)) or project(lat, mart, lo, hi))
    for mod in [m for k, m in sys.modules.items() if k.startswith("devlat")]:
        for name in ("represent", "evaluate", "evaluate_recursive"):
            original = getattr(mod, name, None)
            if callable(original):
                monkeypatch.setattr(mod, name, lambda *a, name=name, fn=original:
                                    public.append(name) or fn(*a))
    payoffs = _jump_payoffs(jump_lattice)
    K, M, t, n = len(payoffs), 50, 2, 4
    assert axiom_report(jump_lattice, NormCD(1.0, 1.0), payoffs, seed=7,
                        mixtures=M).all_passed()
    chunk = deviation._STACK_LEAVES // jump_lattice.num_nodes(4)
    chunks = [min(chunk, M + 3 - lo) for lo in range(0, M + 3, chunk)]
    assert len(chunks) == math.ceil((M + 3) / chunk) == 5
    assert rows == [1] * (2 * K + 1) + chunks
    assert public == []
    passes = len(rows)
    assert windows == [t] * passes
    # the samples' full passes, the probe passes, then the recursion's cells
    assert projected[:K + passes] == [(0, None)] * K + [(t, None)] * passes
    cells = projected[K + passes:]
    assert cells[0][0] == 0 and cells[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))


def test_axiom_report_peaks_under_1_mb_on_the_jump_lattice(jump_lattice):
    payoffs = _jump_payoffs(jump_lattice)
    assert jump_lattice.num_nodes(4) == 1296
    axiom_report(jump_lattice, NormCD(1.0, 1.0), payoffs, seed=7)
    tracemalloc.start()
    try:
        axiom_report(jump_lattice, NormCD(1.0, 1.0), payoffs, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
