"""Level-batched artifact emission against the one-node-at-a-time references
in ``oracles``: the same bytes for JSON summaries, integrand tables and CSV
dumps, and the same refusal of non-finite JSON floats."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import devlat.cli
from devlat import JumpMeasure, NoiseModel, RandomVariable, RepresentingPair, Scaled, \
    SharingProblem, TimeGrid, Variance, build_lattice, represent, solve_sharing, \
    terminal_brownian
from devlat.cli import main
from devlat.jsonio import canonical_json, pair_to_dict, write_payoff_csv, \
    write_process_csv
from oracles import argmins_csv_reference, canonical_json_reference, \
    pair_to_dict_reference, payoff_csv_reference, process_csv_reference

#: floats whose shortest repr is easy to get wrong: signed zero, the smallest
#: subnormal, the first exponent form above 1e16 and a tiny normal
SPECIAL = (-0.0, 5e-324, 1e16, 1e-300)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))

#: (d, m) noise shapes; d + m >= 1
SHAPES = ((0, 2), (1, 0), (1, 2), (2, 0), (2, 2))

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def lattices(draw):
    d, m = draw(st.sampled_from(SHAPES))
    jumps = JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5)) if m else JumpMeasure.empty()
    n = draw(st.integers(1 if m == 0 else 2, 3))  # jump mass per step <= 0.5
    return build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel(d, jumps))


@st.composite
def fills(draw, extra=()):
    """A function filling an array of a given shape from a drawn value pool
    that always holds ``SPECIAL`` (both signs) and ``extra``."""
    pool = draw(st.lists(finite, max_size=12))
    pool += list(SPECIAL) + [-v for v in SPECIAL] + list(extra)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return lambda *shape: rng.choice(np.array(pool), size=shape)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattices(), fills())
def test_integrands_json_bytes_match_reference(lat, fill):
    d, m = lat.noise.d, lat.noise.jumps.m
    levels = [lat.num_nodes(i) for i in range(lat.n_steps)]
    pair = RepresentingPair(
        float(fill(1)[0]),
        tuple(fill(n, d) for n in levels),
        tuple(fill(n, m) for n in levels),
        tuple(np.abs(fill(n)) for n in levels),
    )
    expected = canonical_json_reference(pair_to_dict_reference(pair))
    assert canonical_json(pair_to_dict(pair)) == expected


def test_represented_pair_bytes_match_reference():
    lat = build_lattice(TimeGrid.uniform(3, 1.0),
                        NoiseModel(2, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
    x = RandomVariable(np.random.default_rng(3).normal(size=lat.num_nodes(3)), 3)
    pair = represent(lat, x)
    assert canonical_json(pair_to_dict(pair)) == \
        canonical_json_reference(pair_to_dict_reference(pair))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.integers(-3, 3), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values)
def test_summary_json_bytes_match_reference(obj):
    assert canonical_json(obj) == canonical_json_reference(obj)


def test_numpy_values_and_special_floats_match_reference():
    obj = {
        "arr": np.array([[1.5, -0.0], [5e-324, 1e16]]),
        "ints": np.arange(3),
        "f": np.float64(1e-300),
        "i": np.int64(-4),
        "flag": np.array([True, False]),
        "empty": {"list": [], "dict": {}, "arr": np.zeros(0)},
        "text": "é\t\"%s\"",
        7: (None, True),
    }
    assert canonical_json(obj) == canonical_json_reference(obj)


@pytest.mark.parametrize("where", ["H", "Htilde", "residuals", "mean"])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_pair_raises(where, bad):
    H = [np.zeros((1, 1)), np.zeros((2, 1))]
    Ht = [np.zeros((1, 2)), np.zeros((2, 2))]
    res = [np.zeros(1), np.zeros(2)]
    mean = 0.0
    if where == "mean":
        mean = bad
    else:
        {"H": H, "Htilde": Ht, "residuals": res}[where][1].flat[-1] = bad
    pair = RepresentingPair(mean, tuple(H), tuple(Ht), tuple(res))
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json(pair_to_dict(pair))
    with pytest.raises(ValueError, match="non-finite"):
        canonical_json_reference(pair_to_dict_reference(pair))


def test_non_finite_integrand_exits_1(tmp_path, monkeypatch):
    def represent_with_nan(lat, x):
        pair = represent(lat, x)
        H = tuple(h.copy() for h in pair.H)
        H[-1][0, 0] = np.nan
        return RepresentingPair(pair.mean, H, pair.Htilde, pair.residuals)

    monkeypatch.setattr(devlat.cli, "represent", represent_with_nan)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "lattice": {"grid": {"n": 3, "horizon": 1.0}, "noise": {"d": 1}},
        "payoffs": {"X": {"kind": "expression", "expr": "W"}},
        "drivers": {"g": {"kind": "variance", "alpha": 1.0}},
        "deviation": {"payoff": "X", "driver": "g"},
    }))
    out = tmp_path / "out"
    assert main(["deviation", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert not (out / "integrands.json").exists()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lattices(), fills(NON_FINITE), fills())
def test_csv_bytes_match_reference(tmp_path_factory, lat, fill, fill_finite):
    tmp = tmp_path_factory.mktemp("csv")
    d, m = lat.noise.d, lat.noise.jumps.m
    levels = [lat.num_nodes(i) for i in range(lat.n_steps + 1)]

    values = [fill(n) for n in levels]
    write_process_csv(tmp / "process.csv", values)
    process_csv_reference(tmp / "process_ref.csv", values)
    assert (tmp / "process.csv").read_bytes() == (tmp / "process_ref.csv").read_bytes()

    leaves = fill_finite(levels[-1])  # a RandomVariable is finite
    write_payoff_csv(tmp / "payoff.csv", RandomVariable(leaves, lat.n_steps))
    payoff_csv_reference(tmp / "payoff_ref.csv", leaves)
    assert (tmp / "payoff.csv").read_bytes() == (tmp / "payoff_ref.csv").read_bytes()

    sol = SimpleNamespace(argmin_H=[fill(n, d) for n in levels[:-1]],
                          argmin_Ht=[fill(n, m) for n in levels[:-1]])
    write_process_csv(
        tmp / "argmins.csv",
        [np.hstack([h, ht]) for h, ht in zip(sol.argmin_H, sol.argmin_Ht)],
        columns=[f"z{i + 1}" for i in range(d)] + [f"ztilde{j + 1}" for j in range(m)],
    )
    argmins_csv_reference(tmp / "argmins_ref.csv", lat, sol)
    assert (tmp / "argmins.csv").read_bytes() == (tmp / "argmins_ref.csv").read_bytes()


@pytest.mark.parametrize("noise", [
    {"d": 1},
    {"d": 1, "jumps": {"marks": [-1.0, 2.0], "intensities": [0.25, 0.5]}},
])
def test_share_artifacts_match_reference(tmp_path, noise):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "lattice": {"grid": {"n": 3, "horizon": 1.0}, "noise": noise},
        "payoffs": {"X": {"kind": "expression", "expr": "W"},
                    "Y": {"kind": "expression", "expr": "W**2"}},
        "drivers": {
            "gA": {"kind": "scaled", "gamma": 1.0, "base": {"kind": "variance", "alpha": 1.0}},
            "gB": {"kind": "scaled", "gamma": 3.0, "base": {"kind": "variance", "alpha": 1.0}},
        },
        "share": {"payoff_a": "X", "payoff_b": "Y", "driver_a": "gA", "driver_b": "gB"},
    }))
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0

    cli_cfg = json.loads(cfg.read_text())
    lat = devlat.cli._build_lattice(cli_cfg)
    x = terminal_brownian(lat)
    sol = solve_sharing(lat, SharingProblem(
        x_a=x, x_b=RandomVariable(x.values ** 2, lat.n_steps),
        driver_a=Scaled(1.0, Variance(1.0)), driver_b=Scaled(3.0, Variance(1.0)),
    ))
    argmins_csv_reference(tmp_path / "argmins_ref.csv", lat, sol)
    payoff_csv_reference(tmp_path / "transfer_ref.csv", sol.y_tilde_star.values)
    assert (tmp_path / "share_argmins.csv").read_bytes() == \
        (tmp_path / "argmins_ref.csv").read_bytes()
    assert (tmp_path / "transfer.csv").read_bytes() == \
        (tmp_path / "transfer_ref.csv").read_bytes()
