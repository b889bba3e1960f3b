"""Level-batched artifact emission against the one-node-at-a-time references
in ``oracles``: the same bytes for JSON summaries, integrand tables and CSV
dumps, and the same refusal of non-finite JSON floats, on short columns and
on long ones with heavily repeated bit patterns. The one-pass payoff CSV
loader against the row-by-row reference: the same bits in any row order."""

import ast
import json
import os
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import devlat
import devlat.cli
import devlat.jsonio as jsonio
from devlat import JumpMeasure, NoiseModel, RandomVariable, RepresentingPair, Scaled, \
    SharingProblem, TimeGrid, Variance, build_lattice, represent, solve_sharing, \
    terminal_brownian
from devlat.cli import main
from devlat.jsonio import ColumnTable, canonical_json, lattice_to_dict, \
    load_payoff_csv, pair_to_dict, payoff_csv, process_csv, write_payoff_csv, \
    write_process_csv
from oracles import argmins_csv_reference, canonical_json_reference, \
    lattice_to_dict_reference, load_payoff_csv_reference, pair_to_dict_reference, \
    payoff_csv_reference, process_csv_reference

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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(lattices())
@example(build_lattice(TimeGrid((0.0, 0.1, 0.35, 1.0)),
                       NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5)))))
@example(build_lattice(TimeGrid.uniform(12, 1.0), NoiseModel.brownian(1)))
def test_lattice_json_bytes_match_reference(lat):
    assert canonical_json(lattice_to_dict(lat)) == \
        canonical_json_reference(lattice_to_dict_reference(lat))


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
    with pytest.raises(ValueError, match="non-finite"):  # in the second of two stacked tables
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
    assert list(out.iterdir()) == []


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


# -- long columns: each distinct bit pattern formatted once --------------------------


def _from_bits(*patterns):
    return tuple(np.array(patterns, dtype=np.uint64).view(np.float64).tolist())


#: finite cells a formatter keyed by float value rather than by bit pattern
#: gets wrong (the two zeros compare equal), or whose repr is easy to get
#: wrong: subnormals, the first exponent form, 17-digit reprs
REPEATED = (0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 0.1 + 0.2, 1 / 3, -2 / 3,
            2.0 ** 0.5, 1.0, -1.0)
#: NaNs with other sign and payload bits (all print ``nan``) and both
#: infinities; CSV cells only, JSON refuses them
NON_FINITE_PATTERNS = _from_bits(0x7FF8000000000000, 0xFFF8000000000000,
                                 0x7FF8000000000123, 0xFFF800000000ABCD,
                                 0x7FF0000000000000, 0xFFF0000000000000)


@st.composite
def repeats(draw, extra=()):
    """A function filling an array of a given shape from a small drawn pool
    that always holds ``REPEATED`` and ``extra``: long columns with heavy
    repetition of every awkward bit pattern."""
    pool = draw(st.lists(finite, max_size=6)) + list(REPEATED) + list(extra)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return lambda *shape: rng.choice(np.array(pool), size=shape)


#: lattices with levels longer than 64 nodes: binomial n=8 (128
#: nodes on level 7) and d=2 with two marks (144 nodes on level 2)
LONG_LATTICES = (
    build_lattice(TimeGrid.uniform(8, 1.0), NoiseModel.brownian(1)),
    build_lattice(TimeGrid.uniform(3, 1.0),
                  NoiseModel(2, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5)))),
)


def test_long_lattices_exceed_the_dedup_cut_off():
    for lat in LONG_LATTICES:
        assert lat.num_nodes(lat.n_steps - 1) > 64


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from(LONG_LATTICES), repeats())
def test_long_integrand_columns_match_reference(lat, fill):
    d, m = lat.noise.d, lat.noise.jumps.m
    levels = [lat.num_nodes(i) for i in range(lat.n_steps)]
    pair = RepresentingPair(
        float(fill(1)[0]),
        tuple(fill(n, d) for n in levels),
        tuple(fill(n, m) for n in levels),
        tuple(fill(n) for n in levels),
    )
    assert canonical_json(pair_to_dict(pair)) == \
        canonical_json_reference(pair_to_dict_reference(pair))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(repeats(NON_FINITE_PATTERNS), st.sampled_from(LONG_LATTICES))
def test_long_csv_columns_match_reference(tmp_path_factory, fill, lat):
    tmp = tmp_path_factory.mktemp("long")
    columns = ("a", "b", "c")
    blocks = [fill(300, 3), fill(1, 3), fill(64, 3), fill(0, 3)]
    write_process_csv(tmp / "block.csv", blocks, columns=columns)
    process_csv_reference(tmp / "block_ref.csv", blocks, columns=columns)
    assert (tmp / "block.csv").read_bytes() == (tmp / "block_ref.csv").read_bytes()

    values = [fill(lat.num_nodes(i)) for i in range(lat.n_steps + 1)]
    write_process_csv(tmp / "process.csv", values)
    process_csv_reference(tmp / "process_ref.csv", values)
    assert (tmp / "process.csv").read_bytes() == (tmp / "process_ref.csv").read_bytes()


# -- one text table per artifact: tables and blocks share one dedup ------------------


def _as_rows(obj):
    """``obj`` with every ``ColumnTable`` replaced by its list of row dicts."""
    if isinstance(obj, ColumnTable):
        return [{k: c[i].tolist() for k, c in obj.columns.items()} for i in range(obj.n)]
    if isinstance(obj, dict):
        return {k: _as_rows(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_rows(v) for v in obj]
    return obj


@st.composite
def tables(draw, fill):
    """A ``ColumnTable`` of 0, 1, 2, 3 or 70 rows: float columns of widths
    0-3 and int columns that are, or are not, the row numbers. The last key
    (``z``), when drawn, is a zero-width column or an int64 or uint64 column
    that is not the row numbers, so a row may end, or even consist, in
    literals, and end in ints that the row-number texts do not cover."""
    n = draw(st.sampled_from([0, 1, 2, 3, 70]))
    columns = {}
    for key in draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5,
                             unique=True)):
        kind = draw(st.sampled_from(["float", "wide", "rows", "ints"]))
        if kind == "float":
            columns[key] = fill(n)
        elif kind == "wide":
            columns[key] = fill(n, draw(st.integers(0, 3)))
        elif kind == "rows":
            columns[key] = np.arange(n)
        else:
            columns[key] = np.array(draw(st.lists(
                st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64)
    last = draw(st.sampled_from(["none", "zero_width", "ints", "unsigned", "reversed"]))
    if last == "zero_width":
        columns["z"] = np.zeros((n, 0), dtype=draw(st.sampled_from([float, np.int64])))
    elif last == "ints":
        columns["z"] = np.array(draw(st.lists(
            st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n)), dtype=np.int64)
    elif last == "unsigned":
        columns["z"] = np.array(draw(st.lists(
            st.integers(0, 2**64 - 1), min_size=n, max_size=n)), dtype=np.uint64)
    elif last == "reversed":  # row numbers of the table, not in row order
        columns["z"] = np.arange(n)[::-1]
    return ColumnTable(columns)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), repeats())
def test_tables_sharing_bit_patterns_match_reference(data, fill):
    payload = {"mean": float(fill(1)[0]),
               "levels": [{"level": i, "nodes": data.draw(tables(fill))}
                          for i in range(data.draw(st.integers(1, 4)))],
               "extra": data.draw(tables(fill))}
    assert canonical_json(payload) == canonical_json_reference(_as_rows(payload))


def test_empty_and_zero_width_tables_match_reference():
    """Besides lone tables of no rows or of literals only: tables of one
    layout, which one fold stacks, interleaved with tables of another, with
    a table of no rows among them; literal-only tables of one layout and
    other row counts; and int64 and uint64 columns under one key, which are
    two layouts (stacked, they would meet as floats)."""
    one = [ColumnTable({"k": np.arange(n), "x": np.full(n, 0.5 * n)}) for n in (3, 1, 0, 70)]
    other = [ColumnTable({"x": np.arange(2 * n, dtype=float).reshape(n, 2)}) for n in (2, 5)]
    payload = {
        "no_rows": ColumnTable({"x": np.zeros(0), "k": np.arange(0)}),
        "no_rows_wide": ColumnTable({"x": np.zeros((0, 2))}),
        "zero_width": ColumnTable({"w": np.zeros((3, 0)), "x": np.array([-0.0, 0.0, 1e16])}),
        "only_zero_width": ColumnTable({"u": np.zeros((2, 0)), "v": np.zeros((2, 0), int)}),
        "unsigned": ColumnTable({"u": np.array([2**64 - 1, 0, 5], dtype=np.uint64)}),
        "after": [ColumnTable({"x": np.array([0.1 + 0.2])})],
        "interleaved": [one[0], other[0], one[1], one[2], other[1], one[3]],
        "literals_only": [ColumnTable({"u": np.zeros((n, 0))}) for n in (2, 3, 1)],
        "signed_and_not": [ColumnTable({"u": np.array([-1, 7])}),
                           ColumnTable({"u": np.array([2**64 - 1], dtype=np.uint64)})],
    }
    assert canonical_json(payload) == canonical_json_reference(_as_rows(payload))
    with pytest.raises(TypeError, match="cannot serialise a bool column"):
        canonical_json([ColumnTable({"x": np.zeros(2)}), ColumnTable({"b": np.ones(2, bool)})])
    with pytest.raises(ValueError, match="a table needs at least one column"):
        ColumnTable({})


@pytest.mark.parametrize("obj, key", [
    ({5: 1, "5": 2}, '"5"'),
    ({"a": [{"b": 0, True: 1, "True": 2}]}, '"True"'),
    ({None: 0, "None": 1, "x": 2}, '"None"'),
])
def test_keys_that_render_alike_raise(obj, key):
    """Keys are stringified, so two keys that give one string would silently
    keep only one value; the key is named instead."""
    with pytest.raises(ValueError, match=re.escape(f"two keys of one object render as {key}")):
        canonical_json(obj)


def test_lattice_int_columns_that_are_not_row_numbers_match_reference():
    lat = build_lattice(TimeGrid.uniform(3, 1.0),
                        NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
    doc = lattice_to_dict(lat)
    nodes, labels = doc["levels"].columns["nodes"], doc["edges"][0].columns["jump"]
    assert nodes.tolist() != list(range(len(nodes))) and nodes.max() > len(labels)
    assert labels.tolist() != list(range(len(labels))) and len(set(labels.tolist())) == 3
    assert canonical_json(doc) == canonical_json_reference(lattice_to_dict_reference(lat))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(repeats(NON_FINITE_PATTERNS), repeats(),
       st.lists(st.sampled_from([0, 1, 5, 70]), min_size=1, max_size=5))
def test_csv_blocks_sharing_bit_patterns_match_reference(tmp_path_factory, fill,
                                                         fill_finite, sizes):
    tmp = tmp_path_factory.mktemp("blocks")
    for width, columns in ((2, ("a", "b")), (1, ("value",)), (0, ())):
        blocks = [fill(n, width) for n in sizes]
        text = process_csv(blocks, columns=columns)
        process_csv_reference(tmp / "ref.csv", blocks, columns=columns)
        assert text.encode() == (tmp / "ref.csv").read_bytes()
    assert process_csv([np.zeros((1, 0)), np.zeros((2, 0))], columns=()) == \
        "level,node\r\n0,0\r\n1,0\r\n1,1\r\n"
    leaves = fill_finite(sizes[-1])  # a RandomVariable is finite
    payoff_csv_reference(tmp / "payoff_ref.csv", leaves)
    assert payoff_csv(RandomVariable(leaves, 0)).encode() == \
        (tmp / "payoff_ref.csv").read_bytes()


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


#: payoff values whose decimal cells are easy to misparse: signed zeros, the
#: smallest subnormals, 1e+-300 and values whose repr needs 17 digits
LOAD_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
             0.1 + 0.2, 1 / 3, -2 / 3, 2.0 ** 0.5)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), extra=st.lists(finite, max_size=8),
       seed=st.integers(0, 2**32 - 1), cell=st.sampled_from(["%r", "%.17g"]),
       newline=st.sampled_from(["\n", "\r\n", "\r"]), blanks=st.integers(0, 3),
       in_order=st.booleans(), final_newline=st.booleans())
def test_payoff_csv_load_matches_reference(tmp_path_factory, n, extra, seed, cell,
                                           newline, blanks, in_order, final_newline):
    """Leaves in order (the loader's shortcut) or shuffled, any line end, blank
    lines anywhere, with or without a final line end."""
    lat = build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel.brownian(1))
    leaves = lat.num_nodes(n)
    rng = np.random.default_rng(seed)
    values = rng.choice(np.array(list(LOAD_POOL) + extra), size=leaves).tolist()
    order = range(leaves) if in_order else rng.permutation(leaves).tolist()
    rows = [f"{leaf},{cell % values[leaf]}" for leaf in order]
    for at in rng.integers(0, len(rows) + 1, size=blanks).tolist():
        rows.insert(at, "")
    path = tmp_path_factory.mktemp("load") / "payoff.csv"
    with open(path, "w", newline="") as fh:
        fh.write(newline.join(["leaf,value", *rows]) + newline * final_newline)

    got = load_payoff_csv(path, lat).values
    assert got.tobytes() == load_payoff_csv_reference(path, lat).values.tobytes()
    assert got.tobytes() == np.array(values).tobytes()


#: spellings of a fuzzed row's leaf, and its value texts, good and bad
FUZZ_LEAVES = ("{}", "{}", "+{}", "0{}", " {}", "{} ")
FUZZ_VALUES = ("1.0", "-0.0", "2e-3", " 5", "+.5", "7 ", "-1e-300", "0.1", "3", "x",
               "1e999", "")


@st.composite
def fuzzed_bodies(draw):
    """A 4-leaf body: one row per leaf in a drawn order, leaf and value spelled
    from ``FUZZ_*``, then up to three lines inserted or overwritten by short
    texts over ``0-9 , . - + e x`` and space (blank lines among them), each
    line ended by a drawn line end, the last end perhaps dropped. Most drawn
    files are well formed, or nearly."""
    lines = [draw(st.sampled_from(FUZZ_LEAVES)).format(leaf) + ","
             + draw(st.sampled_from(FUZZ_VALUES)) for leaf in draw(st.permutations(range(4)))]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        text = draw(st.just("") | st.text(alphabet="0123456789,.-+ex ", max_size=8))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = text
        else:
            lines.insert(at, text)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(body=fuzzed_bodies())
@example(body="0,1.0\n1,-0.0\n2,2e-3\n3, 5")
@example(body="\r\r2,1\n\n0,+.5\r3,7 \r\n1,02\r\n")
def test_payoff_csv_fuzzed_rows_load_as_the_reference_or_raise_value_error(
        tmp_path_factory, body):
    """The loader either refuses the file with a ``ValueError`` or reads the
    reference's bits."""
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    path = tmp_path_factory.mktemp("fuzz") / "payoff.csv"
    path.write_bytes(b"leaf,value\n" + body.encode())
    try:
        got = load_payoff_csv(path, lat).values
    except ValueError:
        return
    assert got.tobytes() == load_payoff_csv_reference(path, lat).values.tobytes()


def test_payoff_csv_skips_blank_lines_anywhere(tmp_path):
    """Blank lines first, between rows and last, of any line end, around rows
    in leaf order and out of it."""
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    path = tmp_path / "payoff.csv"
    for body in ("\n\n0,1.0\n\n1,2.0\n2,3.0\r\n\r\n\r3,4.0\n\n",
                 "\r\n2,3.0\n0,1.0\n\n3,4.0\n1,2.0"):
        path.write_bytes(b"leaf,value\n" + body.encode())
        assert load_payoff_csv(path, lat).values.tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("body, message", [
    ("", "{path}: missing leaf values"),
    ("-1,1.0\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n", "{path}: leaf index -1 outside 0..3"),
    ("0,1.0\n1,2.0\n2,3.0\n3,4.0\n2,5.0\n", "{path}: leaf 2 appears more than once"),
    ("0,1.0\n1,2.0\n2.5,3.0\n3,4.0\n", "invalid literal for int() with base 10: '2.5'"),
    ("0,1.0\n1,2.0\n2,x\n3,4.0\n", "could not convert string to float: 'x'"),
    ("0,1.0\n1,2.0\n2\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    ("0,1.0\n1,2.0\n2,3.0,7\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    # bad cells spelled off the row-number texts; the first bad one in file
    # order is the one reported
    ("0,1.0\n1,y\n2,x\n3,4.0\n", "could not convert string to float: 'y'"),
    ("0,1.0\n1,y\n2,1.0\n3,x\n", "could not convert string to float: 'y'"),
    ("0,1.0\n1,2.0\n2,x\n3,4.0\n+9,1\n", "{path}: leaf index 9 outside 0..3"),
    ("0,1.0\n1,2.0\n2,3\n0x3,4.0\n", "invalid literal for int() with base 10: '0x3'"),
    ("0,1.0\n1,2.0\n2,3.0\n3,4.0\n03,5.0\n", "{path}: leaf 3 appears more than once"),
    # shapes the byte pass refuses: a bare row between blank lines, two commas
    # then none (as many commas as rows), two rows on the first line (cells
    # that would pair up), a bad unterminated last row, a bad row after a
    # leading blank line
    ("0,1.0\n1,2.0\n\n2\n\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    ("0,1.0\n1,2.0,3\n2\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    ("0,1.0,1,2.0\n2,3.0\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    ("0,1.0\n1,2.0\n2,3.0\n3", "{path}: every row must be one 'leaf,value' pair"),
    ("\n0\n1,2.0\n2,3.0\n3,4.0\n", "{path}: every row must be one 'leaf,value' pair"),
    # leaf texts that are row-number texts, all but in order
    ("0,1.0\n1,2.0\n0,3.0\n1,4.0\n", "{path}: leaf 0 appears more than once"),
    ("1,1.0\n1,2.0\n2,3.0\n3,4.0\n", "{path}: leaf 1 appears more than once"),
    ("0,1.0\n1,2.0\n2,3.0\n2,4.0\n", "{path}: leaf 2 appears more than once"),
], ids=["header_only", "negative", "duplicate", "leaf_type", "value_type",
        "short_row", "long_row", "first_bad_value", "first_bad_repeated_value",
        "signed_leaf", "hex_leaf",
        "padded_duplicate", "bare_row_between_blank_lines", "two_commas_then_none",
        "two_rows_on_first_line", "bad_unterminated_last_row",
        "bad_row_after_leading_blank_line", "row_numbers_repeated", "first_leaf_repeated",
        "last_leaf_repeated"])
def test_payoff_csv_rejects_malformed_rows(tmp_path, body, message):
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    path = tmp_path / "payoff.csv"
    path.write_text("leaf,value\n" + body)
    with pytest.raises(ValueError) as info:
        load_payoff_csv(path, lat)
    assert str(info.value) == message.format(path=path)


def test_payoff_csv_reports_first_leaf_out_of_range(tmp_path):
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    path = tmp_path / "payoff.csv"
    path.write_text("leaf,value\n0,1.0\n7,2.0\n-3,3.0\n9,4.0\n")
    with pytest.raises(ValueError, match="leaf index 7 outside 0..3"):
        load_payoff_csv(path, lat)


class _CountingTable(dict):
    """A row-number table that counts the leaf texts looked up in it."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("spelling", ["+{}", "0{}", " {}", "{} ", "{}"])
@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
def test_payoff_csv_leaf_spellings_parse_as_int_does(tmp_path, monkeypatch, spelling,
                                                     cold):
    """Leaf texts other than a row number's own (every other leaf here) go
    through ``int``, whether or not the row-number table has grown yet, in
    shuffled and in leaf order. Cold, the table counts its lookups: leaf
    order in the row numbers' own texts takes none, on a lattice of as many
    leaves as the table holds and on one of fewer."""
    if cold:
        monkeypatch.setattr(jsonio, "_ROW_NUMBERS", _CountingTable())
    values = (np.arange(8) / 3).tolist()
    path = tmp_path / "payoff.csv"
    for n, order in [(3, (5, 0, 3, 6, 1, 7, 2, 4)), (3, range(8)), (2, range(4))]:
        lat = build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel.brownian(1))
        path.write_text("leaf,value\n" + "".join(
            f"{(spelling if leaf % 2 else '{}').format(leaf)},{values[leaf]!r}\n"
            for leaf in order))
        lookups = getattr(jsonio._ROW_NUMBERS, "lookups", None)
        got = load_payoff_csv(path, lat).values
        assert got.tobytes() == load_payoff_csv_reference(path, lat).values.tobytes()
        assert got.tobytes() == np.array(values[:len(order)]).tobytes()
        if cold:
            in_order = spelling == "{}" and isinstance(order, range)
            assert (jsonio._ROW_NUMBERS.lookups == lookups) == in_order
    assert {t: dict.__getitem__(jsonio._ROW_NUMBERS, t) for t in map(str, range(8))} == \
        {str(k): k for k in range(8)}


def test_payoff_csv_value_texts_keep_their_own_bits(tmp_path):
    """Each text is parsed once, and texts of one value give that value's bits:
    ``1.0``, ``1.00`` and ``1e0`` alike, ``0.0`` and ``-0.0`` apart."""
    lat = build_lattice(TimeGrid.uniform(3, 1.0), NoiseModel.brownian(1))
    texts = ["1.0", "-0.0", "1.00", "0.0", "1e0", "-0.0", "0.0", "1.0"]
    path = tmp_path / "payoff.csv"
    path.write_text("leaf,value\n" + "".join(f"{k},{t}\n" for k, t in enumerate(texts)))
    got = load_payoff_csv(path, lat).values
    assert got.tobytes() == load_payoff_csv_reference(path, lat).values.tobytes()
    assert got.tobytes() == np.array([1.0, -0.0, 1.0, 0.0, 1.0, -0.0, 0.0, 1.0]).tobytes()


def test_payoff_csv_of_three_repeated_texts(tmp_path):
    """A pool-style file, every leaf one of three texts, in shuffled row order."""
    lat = build_lattice(TimeGrid.uniform(6, 1.0), NoiseModel.brownian(1))
    rng = np.random.default_rng(3)
    texts = rng.choice(np.array(["0.1", "-2.5e-3", "7"]), size=64).tolist()
    path = tmp_path / "payoff.csv"
    path.write_text("leaf,value\r\n" + "".join(
        f"{leaf},{texts[leaf]}\r\n" for leaf in rng.permutation(64).tolist()))
    got = load_payoff_csv(path, lat).values
    assert got.tobytes() == load_payoff_csv_reference(path, lat).values.tobytes()
    assert got.tobytes() == np.array(list(map(float, texts))).tobytes()


def test_a_fifo_with_a_reader_is_replaced_not_written_into(tmp_path):
    """With a reader on the FIFO the writer's open succeeds; the check on the
    opened file must still send it to a fresh regular file."""
    path = tmp_path / "transfer.csv"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        jsonio.write_artifacts([(path, "leaf,value\r\n0,1.0\r\n")])
        assert os.read(reader, 4096) == b""
    finally:
        os.close(reader)
    assert path.is_file() and path.read_bytes() == b"leaf,value\r\n0,1.0\r\n"


@pytest.mark.parametrize("existing", [True, False])
def test_writes_hold_no_copy_of_a_whole_artifact(tmp_path, existing):
    """A ~1 MB ASCII text is written with less than 256 KiB traced at peak,
    over an artifact or to a new path; a text that is not ASCII (here over
    one piece long) keeps its UTF-8 bytes; a lone surrogate raises before
    the file is opened, so the bytes written before stay."""
    path = tmp_path / "integrands.json"
    if existing:
        path.write_bytes(b"old" * 100_000)
    text = "".join(f"{k},{k * 0.1!r}\r\n" for k in range(60_000))
    assert text.isascii() and len(text) > 1_000_000
    tracemalloc.start()
    try:
        jsonio.write_artifacts([(path, text)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == text.encode()
    assert peak < 256 * 1024, peak
    wide = "\u00e9x\u20ac" * 40_000
    jsonio.write_artifacts([(path, wide)])
    assert path.read_bytes() == wide.encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        jsonio.write_artifacts([(path, "x\ud800")])
    assert path.read_bytes() == wide.encode("utf-8")


def test_duplicate_payoff_leaf_exits_1(tmp_path):
    (tmp_path / "x.csv").write_text("leaf,value\n0,1.0\n1,2.0\n1,3.0\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "lattice": {"grid": {"n": 1, "horizon": 1.0}, "noise": {"d": 1}},
        "payoffs": {"X": {"kind": "csv", "path": str(tmp_path / "x.csv")}},
        "drivers": {"g": {"kind": "variance", "alpha": 1.0}},
        "deviation": {"payoff": "X", "driver": "g"},
    }))
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1


# -- one writer ------------------------------------------------------------------------


def _mode_may_write(call: ast.Call) -> bool:
    """Whether an ``open`` call may open for writing: a string literal among
    its first two arguments or its ``mode`` keyword that reads as a write mode
    (``w``, ``x``, ``a`` or ``+``), or a builtin ``open`` whose mode is not a
    literal."""
    keyword = [k.value for k in call.keywords if k.arg == "mode"]
    if isinstance(call.func, ast.Name) and any(
            not isinstance(m, ast.Constant) for m in call.args[1:2] + keyword):
        return True
    return any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and re.fullmatch("[rbt]*[wxa+][rwxabt+]*", m.value)
               for m in call.args[:2] + keyword)


#: ``os.open`` flags that open a file for writing, create it or cut it
WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND")


def _flags_may_write(call: ast.Call) -> bool:
    """Whether an ``os.open`` call may open for writing: its flags name a
    write flag, a name that is no ``O_`` flag (a variable) or a nonzero
    number, or are not given as its second argument or ``flags`` keyword."""
    flags = call.args[1:2] + [k.value for k in call.keywords if k.arg == "flags"]
    if not flags:
        return True
    for node in ast.walk(flags[0]):
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) and node.id != "os" else None
        if name is not None and (name in WRITE_FLAGS or not name.startswith("O_")):
            return True
        if isinstance(node, ast.Constant) and node.value != 0:
            return True
    return False


def _may_write(node: ast.AST) -> bool:
    """Whether ``node`` names ``write_text``, ``write_bytes`` or ``touch``;
    names ``os.write``, ``os.truncate``, ``os.ftruncate``, ``shutil.move`` or
    a ``shutil.copy*``; or opens a file to write (``open`` in a write mode,
    ``os.open`` with a write flag)."""
    if isinstance(node, ast.Attribute):
        module = node.value.id if isinstance(node.value, ast.Name) else None
        return node.attr in ("write_text", "write_bytes", "touch") or (
            module == "os" and node.attr in ("write", "truncate", "ftruncate")) or (
            module == "shutil" and (node.attr.startswith("copy") or node.attr == "move"))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "open" and \
            isinstance(func.value, ast.Name) and func.value.id == "os":
        return _flags_may_write(node)
    return _mode_may_write(node) and (
        (isinstance(func, ast.Name) and func.id == "open")
        or (isinstance(func, ast.Attribute) and func.attr == "open"))


def _writes(tree: ast.AST) -> list[int]:
    """Lines that may write a file, by ``_may_write``."""
    return [node.lineno for node in ast.walk(tree) if _may_write(node)]


def test_only_jsonio_writes_files():
    """Every artifact reaches disk through ``jsonio.write_artifacts``, so the
    fresh-file rule holds in one place."""
    found = {}
    for path in sorted(Path(devlat.__file__).parent.glob("*.py")):
        if path.name != "jsonio.py" and (lines := _writes(ast.parse(path.read_text()))):
            found[path.name] = lines
    assert found == {}


@pytest.mark.parametrize("source, writes", [
    ("open(p, 'w')", True), ("open(p, mode='x')", True), ("open(p, 'a+')", True),
    ("open(p, m)", True), ("p.open('w')", True), ("io.open(p, 'wb')", True),
    ("Path.write_text", True), ("p.write_bytes(b'')", True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True), ("os.open(p, os.O_RDWR)", True),
    ("os.open(p, os.O_RDONLY | os.O_CREAT)", True), ("os.open(p, os.O_TRUNC)", True),
    ("os.open(p, flags=os.O_APPEND)", True), ("os.open(p, flags)", True),
    ("os.open(p, 1)", True), ("os.write(fd, b'x')", True), ("os.truncate(p, 0)", True),
    ("os.ftruncate(fd, 0)", True), ("Path(p).touch()", True), ("shutil.copy(a, b)", True),
    ("shutil.copy2(a, b)", True), ("shutil.copyfile(a, b)", True),
    ("shutil.copytree(a, b)", True), ("shutil.move(a, b)", True),
    ("open(p)", False), ("open(p, 'r')", False), ("p.open()", False),
    ("open('data.csv')", False), ("p.read_text()", False),
    ("os.open(p, os.O_RDONLY)", False), ("os.open(p, os.O_RDONLY | os.O_NONBLOCK)", False),
    ("os.read(fd, 1)", False), ("sys.stdout.write(s)", False), ("shutil.which(c)", False),
])
def test_the_write_guard_sees_every_write(source, writes):
    assert bool(_writes(ast.parse(source))) == writes


def test_row_texts_are_shared_across_artifacts_of_any_length(tmp_path, monkeypatch, skeletons):
    """The row-number texts grow to the longest artifact and are sliced for
    shorter ones: every artifact in a long, short, long sequence keeps its
    reference bytes, and the shared texts are read-only."""
    monkeypatch.setattr(jsonio, "_ROW_TEXTS", {})
    rng = np.random.default_rng(5)
    for rows in (4096, 36, 4096, 36, 5000):
        values = rng.normal(size=rows)
        payoff_csv_reference(tmp_path / "payoff_ref.csv", values)
        assert payoff_csv(RandomVariable(values, 1)).encode() == \
            (tmp_path / "payoff_ref.csv").read_bytes()
        levels = [values[:1], values[1:]]
        process_csv_reference(tmp_path / "process_ref.csv", levels)
        assert process_csv(levels).encode() == (tmp_path / "process_ref.csv").read_bytes()
        table = {"rows": ColumnTable({"node": np.arange(rows), "value": values})}
        assert canonical_json(table) == canonical_json_reference(
            {"rows": [{"node": v, "value": x} for v, x in enumerate(values.tolist())]})
        assert len(jsonio._ROW_TEXTS[","]) == max(4096, rows)
        assert np.shares_memory(jsonio._row_texts(rows, ","), jsonio._ROW_TEXTS[","])
    with pytest.raises(ValueError, match="read-only"):
        jsonio._ROW_TEXTS[","][0] = "1"


def test_row_texts_per_suffix_hold_across_suffixes_and_indentation(tmp_path, monkeypatch,
                                                                   skeletons):
    """Row numbers between different literals come from one table per
    literal, or per prefix and literal: CSV rows (one table per level), one
    table at two indentations (its row numbers, and its last int column, each
    followed by other whitespace) and integrands, rendered in a long, short,
    long sequence, each keep their reference bytes; each table is read-only
    and as long as the longest artifact that asked for it."""
    monkeypatch.setattr(jsonio, "_ROW_TEXTS", {})
    rng = np.random.default_rng(7)
    grown = dict.fromkeys([
        ("0,", ","), ("1,", ","),  # CSV: level, row number, then the first value
        ',\n      "value": ', ',\n          "value": ',  # "node" at two indentations
        '\n    },\n    {\n      "node": ',  # "z": the row's end and the next row's start
        '\n        },\n        {\n          "node": ',
        ',\n          "residual": ',  # integrands: "node", then "residual"
    ], 0)
    for rows in (300, 5, 300, 2, 301):
        values = rng.choice(np.array(REPEATED), size=rows)
        levels = [values[:1], values[1:]]
        process_csv_reference(tmp_path / "process_ref.csv", levels)
        assert process_csv(levels).encode() == (tmp_path / "process_ref.csv").read_bytes()
        table = ColumnTable({"node": np.arange(rows), "value": values,
                             "z": np.arange(rows)[::-1]})
        doc = {"top": table, "nested": {"deeper": [table, table]}}
        assert canonical_json(doc) == canonical_json_reference(_as_rows(doc))
        assert canonical_json([table]) == canonical_json_reference(_as_rows([table]))
        pair = RepresentingPair(0.5, (values[:1, None], values[:, None]),
                                (np.zeros((1, 0)), np.zeros((rows, 0))),
                                (values[:1], values[::-1]))
        assert canonical_json(pair_to_dict(pair)) == \
            canonical_json_reference(pair_to_dict_reference(pair))
        sizes = {("0,", ","): 1, ("1,", ","): rows - 1}  # the CSV's two levels
        grown = {key: max(k, sizes.get(key, rows)) for key, k in grown.items()}
        assert {key: len(t) for key, t in jsonio._ROW_TEXTS.items()} == grown
    for table in jsonio._ROW_TEXTS.values():
        with pytest.raises(ValueError, match="read-only"):
            table[0] = "1"


# -- one skeleton per layout, key and cap ---------------------------------------------


@pytest.fixture
def skeletons(monkeypatch):
    """An empty skeleton cache for the test; returned to read it."""
    cache: dict = {}
    monkeypatch.setattr(jsonio, "_SKELETONS", cache)
    return cache


def _artifacts(lat, rng, tmp):
    """The four per-node artifacts of ``lat`` and their reference texts,
    filled with values drawn from ``rng``; the references are written in
    ``tmp``."""
    d, m = lat.noise.d, lat.noise.jumps.m
    levels = [lat.num_nodes(i) for i in range(lat.n_steps + 1)]
    steps = levels[:-1]
    pair = RepresentingPair(float(rng.normal()), tuple(rng.normal(size=(k, d)) for k in steps),
                            tuple(rng.normal(size=(k, m)) for k in steps),
                            tuple(rng.normal(size=k) for k in steps))
    values, leaves = [rng.normal(size=k) for k in levels], rng.normal(size=levels[-1])
    got = [canonical_json(pair_to_dict(pair)), canonical_json(lattice_to_dict(lat)),
           process_csv(values), payoff_csv(RandomVariable(leaves, lat.n_steps))]
    want = [canonical_json_reference(pair_to_dict_reference(pair)),
            canonical_json_reference(lattice_to_dict_reference(lat))]
    process_csv_reference(tmp / "process.csv", values)
    payoff_csv_reference(tmp / "payoff.csv", leaves)
    want += [(tmp / name).read_bytes().decode() for name in ("process.csv", "payoff.csv")]
    return got, want


def test_lattices_of_one_layout_in_turn_keep_their_bytes(skeletons, tmp_path):
    """n = 3, 4 and 3 again: the second n = 3 render reuses the first's
    skeletons (one per artifact and row count) and keeps its bytes."""
    rng = np.random.default_rng(3)
    for n, kept in ((3, 4), (4, 8), (3, 8)):
        lat = build_lattice(TimeGrid.uniform(n, 1.0), NoiseModel.brownian(1))
        got, want = _artifacts(lat, rng, tmp_path)
        assert got == want and len(skeletons) == kept


def test_int_columns_are_part_of_the_skeleton_key(skeletons):
    """Two branchings at equal n: lattice.json's level tables have equal row
    counts and literals but other ``nodes`` ints, so each gets its own
    skeleton; rendering them in turn keeps both texts."""
    binomial = build_lattice(TimeGrid.uniform(3, 1.0), NoiseModel.brownian(1))
    jumps = build_lattice(TimeGrid.uniform(3, 1.0),
                          NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
    docs = [{"levels": lattice_to_dict(lat)["levels"]} for lat in (binomial, jumps)]
    assert [doc["levels"].n for doc in docs] == [4, 4]
    for doc in (*docs, *docs):
        assert canonical_json(doc) == canonical_json_reference(_as_rows(doc))
    assert len(skeletons) == 2


def test_more_layouts_than_the_cap_drop_the_oldest(skeletons, tmp_path):
    """Past ``_SKELETON_CAP`` layouts the oldest skeleton is dropped, and a
    layout rendered again after its skeleton was dropped keeps its bytes."""
    rng = np.random.default_rng(4)
    blocks = [rng.normal(size=(rows, 2)) for rows in range(1, jsonio._SKELETON_CAP + 3)]
    for block in (*blocks, blocks[0], blocks[-1]):
        process_csv_reference(tmp_path / "ref.csv", [block], columns=("a", "b"))
        assert process_csv([block], columns=("a", "b")).encode() == \
            (tmp_path / "ref.csv").read_bytes()
        assert len(skeletons) <= jsonio._SKELETON_CAP
    assert len(skeletons) == jsonio._SKELETON_CAP


def test_empty_tables_and_signed_zeros_on_repeat_renders(skeletons, tmp_path):
    """A table of no rows beside tables of rows, and a CSV level of no nodes,
    rendered twice with other values: each render keeps its reference bytes,
    and -0.0 keeps its own text wherever it moves."""
    for signs in ([0.0, -0.0, 1.5], [-0.0, 0.0, -0.0]):
        cells = np.array(signs)
        doc = {"empty": ColumnTable({"x": np.zeros(0), "k": np.arange(0)}),
               "rows": ColumnTable({"x": cells, "k": np.arange(3)}),
               "wide": ColumnTable({"x": np.stack([cells, cells[::-1]], axis=1)})}
        text = canonical_json(doc)
        assert text == canonical_json_reference(_as_rows(doc))
        assert text.count("-0.0") == 3 * int(np.signbit(cells).sum())
        levels = [cells[:1], np.zeros(0), cells]
        process_csv_reference(tmp_path / "ref.csv", levels)
        assert process_csv(levels).encode() == (tmp_path / "ref.csv").read_bytes()
    assert len(skeletons) == 2


def test_a_nan_is_refused_on_a_repeat_render(skeletons):
    """A layout whose skeleton is cached still refuses a NaN or infinity in
    its float cells, and renders finite cells right after."""
    table = ColumnTable({"x": np.array([0.5, 1.5]), "k": np.arange(2)})
    assert canonical_json([table]) == canonical_json_reference(_as_rows([table]))
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json([ColumnTable({"x": np.array([0.5, bad]), "k": np.arange(2)})])
    again = ColumnTable({"x": np.array([2.5, -0.0]), "k": np.arange(2)})
    assert canonical_json([again]) == canonical_json_reference(_as_rows([again]))
    assert len(skeletons) == 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: ColumnTable({"a": np.zeros(2), "b": np.zeros(3)}), ValueError,
     "table columns must have one row count"),
    (lambda: ColumnTable({}), ValueError, "a table needs at least one column"),
    (lambda: canonical_json({"x": {1, 2}}), TypeError, "cannot serialise set"),
    (lambda: canonical_json([object()]), TypeError, "cannot serialise object"),
])
def test_jsonio_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
