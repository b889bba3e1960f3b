import ast
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from devlat import JumpMeasure, RandomVariable, SolverConfig, build_lattice, \
    NoiseModel, TimeGrid, assemble, represent, terminal_brownian
import devlat.cli
from devlat.cli import main
from devlat.jsonio import canonical_json, lattice_to_dict, write_payoff_csv
from devlat.lattice import Lattice
from devlat.representation import RepresentingPair
from oracles import main_in_a_fresh_process

#: dyadic jump lattice of the sharing tests: d=1, marks (-1, 2), n=2
JUMP_NOISE = {"d": 1, "jumps": {"marks": [-1.0, 2.0], "intensities": [0.25, 0.5]}}


def _base_config(tmp_path, **extra):
    cfg = {
        "seed": 7,
        "lattice": {
            "grid": {"n": 4, "horizon": 1.0},
            "noise": {"d": 1, "jumps": {"marks": [], "intensities": []}},
        },
        "payoffs": {
            "X": {"kind": "expression", "expr": "W"},
            "Y": {"kind": "expression", "expr": "W**2"},
        },
        "drivers": {
            "g": {"kind": "variance", "alpha": 1.0},
            "gA": {"kind": "scaled", "gamma": 1.0, "base": {"kind": "variance", "alpha": 1.0}},
            "gB": {"kind": "scaled", "gamma": 3.0, "base": {"kind": "variance", "alpha": 1.0}},
        },
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_build_emits_lattice_json(tmp_path):
    cfg = _base_config(tmp_path)
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "lattice.json").read_text())
    assert doc["branching"] == 2
    assert doc["levels"][-1] == {"level": 4, "nodes": 16}
    assert len(doc["edges"]) == 4


def test_deviation_command_and_summary(tmp_path):
    cfg = _base_config(tmp_path, deviation={"payoff": "X", "driver": "g",
                                            "partition": [0, 2, 4]})
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "deviation_summary.json").read_text())
    assert doc["D0"] == 1.0
    assert doc["recursion_max_gap"] <= 1e-12
    lines = (tmp_path / "deviation.csv").read_text().splitlines()
    assert lines[0] == "level,node,value"
    assert len(lines) == 1 + sum(2 ** i for i in range(5))
    pair_doc = json.loads((tmp_path / "integrands.json").read_text())
    assert pair_doc["levels"][0]["nodes"][0]["H"] == [1.0]
    assert pair_doc["levels"][0]["nodes"][0]["residual"] == 0.0


def test_deviation_determinism(tmp_path):
    cfg = _base_config(tmp_path, deviation={"payoff": "Y", "driver": "g"})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["deviation", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
    assert (out1 / "deviation_summary.json").read_bytes() == \
        (out2 / "deviation_summary.json").read_bytes()
    assert (out1 / "deviation.csv").read_bytes() == (out2 / "deviation.csv").read_bytes()


def test_share_command(tmp_path):
    cfg = _base_config(tmp_path, share={
        "payoff_a": "X", "payoff_b": "Y", "driver_a": "gA", "driver_b": "gB"})
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "share_summary.json").read_text())
    assert doc["attained"] is True
    assert abs(doc["du_b"]) <= 1e-8
    assert doc["share_factor"] == pytest.approx(0.75, abs=1e-15)
    assert doc["infconv_D0"] == pytest.approx(0.625, abs=1e-12)
    argmins = (tmp_path / "share_argmins.csv").read_text().splitlines()
    assert argmins[0] == "level,node,z1"
    transfer = (tmp_path / "transfer.csv").read_text().splitlines()
    assert transfer[0] == "leaf,value"
    assert len(transfer) == 17


def test_a_share_job_builds_one_split_plan(tmp_path, monkeypatch):
    """The summary's ``share_factor`` is read from the solve's own plan."""
    calls = []
    build = devlat.sharing._split_plan
    monkeypatch.setattr(devlat.sharing, "_split_plan", lambda *a: calls.append(a) or build(*a))
    cfg = _base_config(tmp_path, share={
        "payoff_a": "X", "payoff_b": "Y", "driver_a": "gA", "driver_b": "gB"})
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "share_summary.json").read_text())["share_factor"] == 0.75


def test_share_argmins_are_the_reported_share_factor(tmp_path):
    """A common-base ``Variance`` pair: every row of ``share_argmins.csv`` is
    the reported ``share_factor`` times the total's integrand, bit for bit."""
    def scaled(gamma):
        return {"kind": "scaled", "gamma": gamma,
                "base": {"kind": "variance", "alpha": 0.9}}

    cfg = _base_config(tmp_path, drivers={"gA": scaled(1.1), "gB": scaled(2.3)},
                       share={"payoff_a": "X", "payoff_b": "Y",
                              "driver_a": "gA", "driver_b": "gB"})
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    f = json.loads((tmp_path / "share_summary.json").read_text())["share_factor"]
    assert f == 2.3 / (1.1 + 2.3)
    lat = build_lattice(TimeGrid.uniform(4, 1.0), NoiseModel.brownian(1))
    w = lat.brownian_states(4)[:, 0]
    total = represent(lat, RandomVariable(w, 4) + RandomVariable(w ** 2, 4))
    argmins = np.loadtxt(tmp_path / "share_argmins.csv", delimiter=",", skiprows=1)
    want = np.concatenate([f * H[:, 0] for H in total.H])
    assert argmins[:, 2].tobytes() == want.tobytes()


def test_share_pools_nested_drivers(tmp_path):
    """An ``InfConv`` side pools with the other side: ``variance(1)`` #
    ``norm_cd(1, 0.5)`` against ``variance(2)`` is the flat pair
    ``variance(2/3)`` against ``norm_cd(1, 0.5)``, and ``variance(1)`` #
    ``variance(3)`` against ``variance(2)`` reports its share factor
    ``q_A / (q_A + q_B)`` with ``q_A = 3/4``, which every argmin row obeys."""
    def variance(alpha):
        return {"kind": "variance", "alpha": alpha}

    def share(name, driver_a, driver_b):
        out = tmp_path / name
        out.mkdir()
        cfg = _base_config(out, drivers={"gA": driver_a, "gB": driver_b},
                           share={"payoff_a": "X", "payoff_b": "Y",
                                  "driver_a": "gA", "driver_b": "gB"})
        assert main(["share", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        return json.loads((out / "share_summary.json").read_text()), out

    norm = {"kind": "norm_cd", "c": 1.0, "d": 0.5}
    nested, _ = share("nested", {"kind": "infconv", "a": variance(1.0), "b": norm},
                      variance(2.0))
    flat, _ = share("flat", variance(2.0 / 3.0), norm)
    assert nested["attained"] is True and nested["share_factor"] is None
    assert nested["infconv_D0"] == pytest.approx(flat["infconv_D0"], rel=1e-12)

    quad, out = share("quad", {"kind": "infconv", "a": variance(1.0), "b": variance(3.0)},
                      variance(2.0))
    assert quad["attained"] is True and quad["share_factor"] == 0.75 / (0.75 + 2.0)
    lat = build_lattice(TimeGrid.uniform(4, 1.0), NoiseModel.brownian(1))
    w = lat.brownian_states(4)[:, 0]
    total = represent(lat, RandomVariable(w, 4) + RandomVariable(w ** 2, 4))
    argmins = np.loadtxt(out / "share_argmins.csv", delimiter=",", skiprows=1)
    want = np.concatenate([quad["share_factor"] * H[:, 0] for H in total.H])
    assert argmins[:, 2].tobytes() == want.tobytes()


def test_axioms_and_check_driver(tmp_path):
    cfg = _base_config(
        tmp_path,
        axioms={"driver": "g", "payoffs": ["X", "Y"], "mixtures": 20},
        check_driver={"driver": "g", "samples": 40},
    )
    assert main(["axioms", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    axioms = json.loads((tmp_path / "axioms.json").read_text())
    assert axioms["all_passed"] is True
    assert main(["check-driver", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    check = json.loads((tmp_path / "driver_check.json").read_text())
    assert check["all_passed"] is True


def test_axioms_refuses_an_analytic_payoff_with_exit_1(tmp_path, capsys):
    cfg = _base_config(
        tmp_path,
        lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": {"d": 1}},
        payoffs={"X": {"kind": "expression", "expr": "W**2"},
                 "A": {"kind": "analytic", "h": [[1.0], [0.5]]}},
        axioms={"driver": "g", "payoffs": ["X", "A"]},
    )
    out = tmp_path / "out"
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: axioms: payoff must be a lattice payoff\n"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("max_nodes, mixtures", [(None, 10 ** 12), (100, 101)])
def test_axioms_mixtures_over_the_node_budget_exit_1(tmp_path, capsys, max_nodes, mixtures):
    lattice = {"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE}
    if max_nodes is not None:
        lattice["max_nodes"] = max_nodes
    cfg = _base_config(tmp_path, lattice=lattice,
                       axioms={"driver": "g", "payoffs": ["X", "Y"], "mixtures": mixtures})
    out = tmp_path / "out"
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    budget = 1_000_000 if max_nodes is None else max_nodes
    assert capsys.readouterr().err == (f"error: axioms: 'mixtures' = {mixtures} is over "
                                       f"the max_nodes budget {budget}\n")
    assert list(out.glob("*")) == []


def test_axioms_probe_cells_over_64_times_the_node_budget_exit_1(tmp_path, capsys):
    """Mixtures within the node budget can still stack more probe cells,
    (mixtures + 3) x leaves, than 64 x the budget: refused before any probe."""
    lattice = {"grid": {"n": 6, "horizon": 1.0}, "noise": {"d": 1}, "max_nodes": 64}
    axioms = {"driver": "g", "payoffs": ["X", "Y"]}
    out = tmp_path / "out"
    # 64 leaves: 61 mixtures are 64 x 64 = 4096 cells, at the bound
    cfg = _base_config(tmp_path, lattice=lattice, axioms={**axioms, "mixtures": 61})
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    (out / "axioms.json").unlink()
    cfg = _base_config(tmp_path, lattice=lattice, axioms={**axioms, "mixtures": 62})
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == ("error: axioms: 'mixtures' = 62 gives 4160 "
                                       "probe cells, over 64 x the max_nodes budget "
                                       "64 = 4096\n")
    assert list(out.glob("*")) == []


def test_each_run_applies_its_own_node_budget(tmp_path, capsys):
    """Two runs whose configs differ only in ``max_nodes``: the second
    applies its own budget, although the first built the same lattice."""
    lattice = {"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE}
    axioms = {"driver": "g", "payoffs": ["X", "Y"], "mixtures": 101}
    out = tmp_path / "out"
    cfg = _base_config(tmp_path, lattice=lattice, axioms=axioms)
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    (out / "axioms.json").unlink()
    cfg = _base_config(tmp_path, lattice={**lattice, "max_nodes": 100}, axioms=axioms)
    assert main(["axioms", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == ("error: axioms: 'mixtures' = 101 is over "
                                       "the max_nodes budget 100\n")
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("order", [1, -1])
def test_build_writes_each_configs_own_signed_zeros(tmp_path, order):
    """Grids starting at 0.0 and -0.0 and marks with a 0.0 or -0.0
    component are equal as floats; each run writes its own config's bits."""
    configs = [(t0, c0) for t0 in (0.0, -0.0) for c0 in (0.0, -0.0)][::order]
    for t0, c0 in configs * 2:
        noise = {"d": 1, "jumps": {"marks": [[c0, 1.0]], "intensities": [0.5]}}
        cfg = _base_config(tmp_path, lattice={"grid": {"times": [t0, 0.5, 1.0]},
                                              "noise": noise})
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        want = canonical_json(lattice_to_dict(Lattice(
            TimeGrid((t0, 0.5, 1.0)), NoiseModel(1, JumpMeasure(((c0, 1.0),), (0.5,))))))
        assert (tmp_path / "lattice.json").read_text() == want
        signs = [math.copysign(1.0, v) for v in (t0, c0)]
        assert len(re.findall(r"-0\.0[,\n]", want)) == signs.count(-1.0)


#: lattice blocks in pairs that ``==`` cannot tell apart, though one
#: builds another lattice or is refused: a signed-zero time or mark, a
#: ``true`` Brownian dimension and a node budget under the leaf count
_GRID = {"grid": {"n": 2, "horizon": 1.0}}
TWIN_BLOCKS = {
    "time": [{"grid": {"times": [t0, 0.5, 1.0]}, "noise": {"d": 1}} for t0 in (0.0, -0.0)],
    "mark": [{**_GRID, "noise": {"d": 1, "jumps": {"marks": [[c0, 1.0]], "intensities": [0.5]}}}
             for c0 in (-0.0, 0.0)],
    "d": [{**_GRID, "noise": {"d": d}} for d in (1, True)],
    "max_nodes": [{**_GRID, "noise": {"d": 1}, "max_nodes": k} for k in (4, 3)],
}


def _build_run(config: Path, out: Path, fresh: bool = False) -> tuple:
    """The exit code and ``lattice.json`` bytes of a ``build`` run, in this
    process or in a fresh one."""
    argv = ["build", "--config", str(config), "--out", str(out), "--quiet"]
    code = main_in_a_fresh_process(argv).returncode if fresh else main(argv)
    return code, (out / "lattice.json").read_bytes() if code == 0 else None


@pytest.mark.parametrize("blocks", TWIN_BLOCKS.values(), ids=list(TWIN_BLOCKS))
def test_twin_lattice_blocks_in_turn_build_as_a_fresh_process_does(tmp_path, blocks, capsys):
    """The CLI keeps the lattice of the latest ``lattice`` block; two blocks
    equal under ``==`` run in turn must each give a fresh process's exit code
    and bytes, the second block's refusal after a hit on the first included."""
    configs = []
    for k, block in enumerate(blocks):
        configs.append(tmp_path / f"config{k}.json")
        configs[-1].write_text(json.dumps({"lattice": block}))
    fresh = [_build_run(c, tmp_path / f"fresh{k}", fresh=True) for k, c in enumerate(configs)]
    assert fresh[0][0] == 0 and fresh[0] != fresh[1]
    for run, k in enumerate([0, 0, 1, 0, 1, 1]):
        assert _build_run(configs[k], tmp_path / f"run{run}") == fresh[k], (run, k)
    capsys.readouterr()


def test_a_repeated_lattice_block_reuses_its_lattice():
    block = {"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE}
    lat = devlat.cli._build_lattice({"lattice": block})
    assert devlat.cli._build_lattice(json.loads(json.dumps({"lattice": block}))) is lat
    other = devlat.cli._build_lattice({"lattice": {**block, "max_nodes": 36}})
    assert other is not lat and other.max_nodes == 36


def test_axioms_mixtures_at_the_node_budget_run(tmp_path):
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0},
                                          "noise": JUMP_NOISE, "max_nodes": 100},
                       axioms={"driver": "g", "payoffs": ["X", "Y"], "mixtures": 100})
    assert main(["axioms", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert json.loads((tmp_path / "axioms.json").read_text())["report"]["samples"] == 100


def test_law_probe_command(tmp_path):
    cfg = _base_config(
        tmp_path,
        payoffs={
            "up": {"kind": "expression", "expr": "W"},
            "down": {"kind": "expression", "expr": "-W"},
            "flat": {"kind": "analytic", "h": [[1.0], [1.0], [1.0], [1.0]]},
            "burst": {"kind": "analytic",
                      "h": [[math.sqrt(2)], [math.sqrt(2)], [0.0], [0.0]]},
        },
        drivers={"g": {"kind": "norm_cd", "c": 1.0, "d": 0.0}},
        law_probe={"driver": "g", "pairs": [["up", "down"]],
                   "analytic_pairs": [["flat", "burst"]]},
    )
    assert main(["law-probe", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "law_probe.json").read_text())
    lattice_entry = doc["report"]["entries"][0]
    assert lattice_entry["gap"] <= 1e-10
    assert lattice_entry["law_gap"] <= 1e-12
    assert len(lattice_entry["law_first"][0]) == 5  # merged atoms of W
    analytic_entry = doc["report"]["entries"][1]
    assert analytic_entry["continuous_limit_only"] is True
    assert analytic_entry["law_first"] is None
    assert analytic_entry["gap"] == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)


def test_csv_payoff_ingestion(tmp_path):
    lat = build_lattice(TimeGrid.uniform(4, 1.0), NoiseModel.brownian(1))
    values = np.arange(16, dtype=float) - 7.5
    write_payoff_csv(tmp_path / "payoff.csv", RandomVariable(values, 4))
    cfg = _base_config(
        tmp_path,
        payoffs={"Z": {"kind": "csv", "path": "payoff.csv"}},
        deviation={"payoff": "Z", "driver": "g"},
    )
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "deviation_summary.json").read_text())
    assert doc["D0"] > 0


def test_relative_csv_path_is_read_from_the_config_directory(tmp_path):
    config_dir, out = tmp_path / "config", tmp_path / "out"
    config_dir.mkdir()
    write_payoff_csv(config_dir / "payoff.csv",
                     RandomVariable(np.arange(16, dtype=float) - 7.5, 4))
    cfg = _base_config(
        config_dir,
        payoffs={"Z": {"kind": "csv", "path": "payoff.csv"}},
        deviation={"payoff": "Z", "driver": "g"},
    )
    assert main(["deviation", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "deviation_summary.json").exists()


def test_subnormal_grid_represents_and_exits_0(tmp_path):
    """Steps of the smallest subnormal length still have positive outcome
    probabilities, so the closed-form projector is finite: the payoff
    round-trips exactly and ``deviation`` succeeds."""
    times = [0.0, 5e-324, 1e-323]
    lat = build_lattice(TimeGrid(tuple(times)), NoiseModel.brownian(1))
    w = terminal_brownian(lat)
    for x in (w, RandomVariable(w.values ** 2, 2), RandomVariable(np.arange(4.0), 2)):
        assert assemble(lat, represent(lat, x)).values.tobytes() == x.values.tobytes()
    cfg = _base_config(
        tmp_path,
        lattice={"grid": {"times": times},
                 "noise": {"d": 1, "jumps": {"marks": [], "intensities": []}}},
        deviation={"payoff": "X", "driver": "g"},
    )
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0


def test_payoff_csv_validation(tmp_path):
    lat = build_lattice(TimeGrid.uniform(2, 1.0), NoiseModel.brownian(1))
    from devlat.jsonio import load_payoff_csv

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("index,value\n0,1.0\n")
    with pytest.raises(ValueError):
        load_payoff_csv(bad_header, lat)
    missing = tmp_path / "missing.csv"
    missing.write_text("leaf,value\n0,1.0\n1,2.0\n")
    with pytest.raises(ValueError):
        load_payoff_csv(missing, lat)
    out_of_range = tmp_path / "range.csv"
    out_of_range.write_text("leaf,value\n9,1.0\n")
    with pytest.raises(ValueError):
        load_payoff_csv(out_of_range, lat)


def test_invalid_driver_param_exits_1(tmp_path):
    cfg = _base_config(tmp_path, drivers={"g": {"kind": "variance", "alpha": -1.0}},
                       deviation={"payoff": "X", "driver": "g"})
    out = tmp_path / "out"
    assert main(["deviation", "--config", str(cfg), "--out", str(out)]) == 1
    assert not (out / "deviation_summary.json").exists()


def test_missing_config_exits_1(tmp_path):
    assert main(["build", "--config", str(tmp_path / "nope.json")]) == 1


def _link_loop(tmp: Path) -> Path:
    os.symlink(tmp / "config.json", tmp / "config.json")
    return tmp / "config.json"


@pytest.mark.parametrize("make", [
    lambda tmp: tmp / "nope.json",
    lambda tmp: tmp,
    lambda tmp: tmp / "nope" / "config.json",
    _link_loop,
], ids=["missing", "directory", "missing_directory", "link_loop"])
def test_a_config_path_naming_no_regular_file_exits_1_as_not_found(tmp_path, capsys, make):
    config = make(tmp_path)
    assert main(["build", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: config file not found: {config}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("not json", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[]", "config root must be a JSON object"),
    (json.dumps({"lattice": {"grid": {"n": 2, "horizon": 1.0}, "noise": {"d": -1}}}),
     "noise: d must be >= 0"),
], ids=["not_json", "array_root", "negative_d"])
def test_an_unreadable_config_exits_1_and_writes_nothing(tmp_path, capsys, text, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["build", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, block, names", [
    ("build", {}, ["lattice.json"]),
    ("deviation", {"deviation": {"payoff": "X", "driver": "g"}},
     ["deviation.csv", "integrands.json", "deviation_summary.json"]),
    ("share", {"share": {"payoff_a": "X", "payoff_b": "Y", "driver_a": "gA", "driver_b": "gB"}},
     ["share_argmins.csv", "transfer.csv", "share_summary.json"]),
])
def test_without_quiet_each_artifact_is_named_once_in_order(tmp_path, capsys, command, block,
                                                             names):
    cfg = _base_config(tmp_path, **block)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in names]


def test_unknown_reference_exits_1(tmp_path):
    cfg = _base_config(tmp_path, deviation={"payoff": "missing", "driver": "g"})
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path)]) == 1


SHARE_FILES = {"share_argmins.csv", "transfer.csv", "share_summary.json"}


def test_non_convergent_share_exits_2(tmp_path, capsys):
    # d * sqrt(0.3) < 1: the pair's inf-convolution is unbounded below
    cfg = _base_config(
        tmp_path,
        lattice={
            "grid": {"n": 2, "horizon": 1.0},
            "noise": {"d": 1, "jumps": {"marks": [-1.0, 2.0],
                                        "intensities": [0.1, 0.2]}},
        },
        drivers={
            "bad": {"kind": "cvar_jump", "a": 0.15},
            "g": {"kind": "norm_cd", "c": 1.0, "d": 0.5},
        },
        payoffs={"X": {"kind": "expression", "expr": "W + C1"},
                 "Y": {"kind": "expression", "expr": "W - C2"}},
        solver={"max_iterations": 200, "polish_iterations": 20},
        share={"payoff_a": "X", "payoff_b": "Y", "driver_a": "g",
               "driver_b": "bad"},
    )
    out = tmp_path / "out"
    code = main(["share", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "inf-convolution unbounded below\n"
    assert {p.name for p in out.iterdir()} == SHARE_FILES
    doc = json.loads((out / "share_summary.json").read_text())
    assert doc["attained"] is False


def test_a_bounded_share_short_of_its_budget_exits_2(tmp_path, capsys):
    # cvar_jump against variance is bounded below and attains under the
    # default budget; one solver step leaves a certificate gap over 1e-5
    extra = dict(
        lattice={"grid": {"n": 2, "horizon": 1.0},
                 "noise": {"d": 1, "jumps": {"marks": [-1.0, 2.0], "intensities": [0.1, 0.2]}}},
        drivers={"cvar": {"kind": "cvar_jump", "a": 0.15}, "g": {"kind": "variance", "alpha": 1.0}},
        payoffs={"X": {"kind": "expression", "expr": "W + C1"},
                 "Y": {"kind": "expression", "expr": "W - C2"}},
        share={"payoff_a": "X", "payoff_b": "Y", "driver_a": "g", "driver_b": "cvar"},
    )
    cfg = _base_config(tmp_path, **extra)
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path / "full"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    cfg = _base_config(tmp_path, **extra, solver={"max_iterations": 1, "stall_window": 1,
                                                  "polish_iterations": 0})
    out = tmp_path / "short"
    assert main(["share", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == \
        "sharing solve did not attain the optimum at every node\n"
    assert {p.name for p in out.iterdir()} == SHARE_FILES
    doc = json.loads((out / "share_summary.json").read_text())
    assert doc["attained"] is False and doc["certificate_gap"] > 1e-5


def test_cli_imports_no_private_name_of_the_library():
    """The CLI reads the library through its public names only; a verdict it
    needs comes with the result that the deciding module returns."""
    tree = ast.parse(Path(devlat.cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.startswith("devlat"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_knee_adjacent_norm_variance_share_attains(tmp_path):
    # NormCD (+) Variance with the level-1 jump integrand at 0.99 of the Huber
    # knee d/(2 alpha): the optimal split hands all jump risk to the Variance
    # side, so the NormCD side sits at its kink while the Brownian block is
    # interior. The iterative solver stalled here under the default budget.
    lat = build_lattice(TimeGrid.uniform(2, 1.0),
                        NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
    nu = lat.noise.jumps.intensity_array
    c, d, alpha = 0.7, 1.1, 0.9
    knee = d / (2.0 * alpha)
    direction = np.array([0.6, -0.8])
    at_knee = direction / math.sqrt(float(direction ** 2 @ nu)) * 0.99 * knee
    H = (np.array([[0.9]]), np.full((6, 1), 0.8))
    Ht = (np.array([[0.3, -0.2]]), np.vstack([at_knee] + [[0.4, 0.1]] * 5))
    total = assemble(lat, RepresentingPair(0.0, H, Ht, (np.zeros(1), np.zeros(6))))
    ratio = math.sqrt(float(represent(lat, total).Htilde[1][0] ** 2 @ nu)) / knee
    assert 0.98 <= ratio <= 0.998
    write_payoff_csv(tmp_path / "total.csv", total)
    cfg = _base_config(
        tmp_path,
        lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE},
        payoffs={"X": {"kind": "csv", "path": "total.csv"},
                 "Z": {"kind": "expression", "expr": "0.0 * T"}},
        drivers={"gn": {"kind": "norm_cd", "c": c, "d": d},
                 "gv": {"kind": "variance", "alpha": alpha}},
        share={"payoff_a": "X", "payoff_b": "Z", "driver_a": "gn", "driver_b": "gv"},
    )
    assert main(["share", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "share_summary.json").read_text())
    assert doc["attained"] is True
    assert doc["certificate_gap"] <= SolverConfig().attain_tolerance


def test_residual_threshold_exits_2(tmp_path):
    cfg = _base_config(
        tmp_path,
        lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE},
        payoffs={"X": {"kind": "expression", "expr": "W**2 + N1"},
                 "Y": {"kind": "expression", "expr": "W * N2"}},
        solver={"residual_tolerance": 1e-12},
        share={"payoff_a": "X", "payoff_b": "Y", "driver_a": "g", "driver_b": "g"},
    )
    out = tmp_path / "out"
    assert main(["share", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert not (out / "share_summary.json").exists()


def test_seed_override(tmp_path):
    cfg = _base_config(tmp_path, axioms={"driver": "g", "payoffs": ["X", "Y"],
                                         "mixtures": 5})
    assert main(["axioms", "--config", str(cfg), "--out", str(tmp_path),
                 "--seed", "99", "--quiet"]) == 0
    doc = json.loads((tmp_path / "axioms.json").read_text())
    assert doc["seed"] == 99


def test_consecutive_calls_do_not_share_arguments(tmp_path):
    cfg = _base_config(tmp_path, axioms={"driver": "g", "payoffs": ["X", "Y"],
                                         "mixtures": 5})
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["axioms", "--config", str(cfg), "--out", str(first),
                 "--seed", "99", "--quiet"]) == 0
    assert main(["axioms", "--config", str(cfg), "--out", str(second),
                 "--quiet"]) == 0
    assert json.loads((first / "axioms.json").read_text())["seed"] == 99
    assert json.loads((second / "axioms.json").read_text())["seed"] == 7


# -- expression payoffs -----------------------------------------------------------

#: the README's and the tests' expressions, and one use of every allowed function
#: and operator
EXPRESSIONS = [
    "W", "W**2", "-W", "+W", "W + C1", "W - C2", "0.0 * T", "W**2 + N1", "W * N2",
    "(2)*W + (-1)*N1 + (0)*N2 + (3)*W**2 + (-2)*W*N1",
    "(0.25)*W + (-0.1)*W**2 + (1.2)*maximum(W - (-0.3), 0)",
    "abs(W) + exp(-W) + log(2 + abs(W)) + sqrt(1 + W**2)",
    "sin(W) * cos(N1) / (1 + N2)", "minimum(W, 1) + where(W > 0, W, -W)",
    "(W >= 0) * 1.5 + (W <= 0) - (N1 == 1) + (N2 != 0) + (W < 1) * (W > -1)",
    "W // 2 + W % 3 + 7 // 2 + 1e-3 * T",
    "(1 < 2) + W", "(1 < 2 < 3) * W",
]


@pytest.mark.parametrize("expr", EXPRESSIONS)
def test_expression_payoffs_evaluate_as_before(expr):
    lat = build_lattice(TimeGrid.uniform(3, 1.0),
                        NoiseModel(1, JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))))
    ns = devlat.cli._expression_namespace(lat)
    code = devlat.cli._compile_expression(expr, ns)
    got = eval(code, {"__builtins__": {}}, dict(ns))
    # the former evaluation: the raw string under empty builtins
    want = eval(expr, {"__builtins__": {}}, dict(ns))
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("expr", [
    "().__class__.__bases__", "(lambda: 0)()", "W.__class__", "W.sum()",
    "__import__('os')", "foo(W)", "np.sin(W)", "abs", "exp", "[W][0]", "{1: W}[1]",
    "W if 1 else W", "True + W", "None", "'W'", "1j * W", "maximum(W, x=0)",
    "sin(*[W])", "W @ W", "(W > 0) & (N1 > 0)", "~N1", "not W", "W and W",
    "x := W", "-" * 100_000 + "W", "W[0]", "f'{W}'", "...",
    # allowed constructs whose literal subtree raises, overflows or turns
    # complex (checked in floats while validating), a runtime arithmetic error
    # and a complex payoff
    "1/0 + W", "1 % 0 + W", "2.0**5000 + W", "10**400 * W", "(-8)**(1/3) + W",
    "9**9**9**9", "1e400 + W", "W + 1e308 * 10", "exp(1000) + W", "log(0) + W",
    "T / 0 + W", "(-T)**0.5 + W",
])
def test_expression_constructs_off_the_list_exit_1(tmp_path, expr):
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0},
                                          "noise": JUMP_NOISE},
                       payoffs={"X": {"kind": "expression", "expr": expr}},
                       deviation={"payoff": "X", "driver": "g"})
    out = tmp_path / "out"
    assert main(["deviation", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert list(out.iterdir()) == []


def test_guarded_expression_payoff_runs_without_warnings(tmp_path, capsys):
    """``where`` evaluates ``log`` on the discarded branch too; that raises no
    warning, which pytest's ``error::RuntimeWarning`` filter would turn into
    an exit 3."""
    cfg = _base_config(tmp_path, payoffs={"X": {"kind": "expression",
                                                "expr": "where(W > 0, log(W), 0)"}},
                       deviation={"payoff": "X", "driver": "g"})
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "deviation_summary.json").read_text())["D0"] > 0.0


def test_unguarded_expression_payoff_off_its_domain_exits_1(tmp_path, capsys):
    cfg = _base_config(tmp_path, payoffs={"X": {"kind": "expression", "expr": "log(W)"}},
                       deviation={"payoff": "X", "driver": "g"})
    out = tmp_path / "out"
    assert main(["deviation", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: payoff 'X': values must be finite\n"
    assert list(out.glob("*")) == []


# -- malformed configs ---------------------------------------------------------------

#: (command, key path, value): a value of the wrong JSON type or range. The
#: solver cases run a share whose pair takes the numeric path
#: (``Scaled(2, Variance(1))`` with ``CVaRJump(0.4)``), where the counts are used
MALFORMED = [
    ("build", ["lattice"], 5),
    ("build", ["lattice", "grid"], 5),
    ("build", ["lattice", "noise"], 5),
    ("build", ["lattice", "noise", "jumps"], 5),
    ("build", ["lattice", "grid", "times"], 5),
    ("build", ["lattice", "noise", "jumps", "marks"], 5),
    ("deviation", ["deviation"], 5),
    ("deviation", ["deviation", "partition"], 5),
    ("deviation", ["solver"], 5),
    ("axioms", ["axioms", "payoffs"], 5),
    ("law-probe", ["law_probe", "pairs"], 5),
    ("axioms", ["axioms", "level"], "x"),
    ("axioms", ["axioms", "level"], 1.5),
    ("build", ["seed"], None),
    ("build", ["lattice", "max_nodes"], None),
    ("build", ["lattice", "max_nodes"], 2**64),
    ("check-driver", ["check_driver", "samples"], None),
    ("share", ["solver", "stall_window"], 0),
    ("share", ["solver", "max_iterations"], 2.5),
    ("share", ["solver", "polish_iterations"], 2.5),
    ("share", ["solver", "stall_window"], -3),
    ("share", ["solver", "max_iterations"], True),
    ("share", ["solver", "attain_tolerance"], float("nan")),
    # JSON has no NaN or Infinity, but Python's json reads them
    ("law-probe", ["law_probe", "law_tol"], float("nan")),
    ("build", ["lattice", "grid", "horizon"], float("inf")),
    ("build", ["lattice", "noise", "jumps", "intensities"], [float("nan"), 0.5]),
    ("build", ["lattice", "grid", "times"], [0.0, float("nan"), 1.0]),
    ("axioms", ["axioms", "mixtures"], 0),
    ("axioms", ["axioms", "mixtures"], -5),
    # two Brownian columns per step on a d=1 lattice
    ("law-probe", ["payoffs", "A", "h"], [[1, 1], [1, 1]]),
    # analytic integrands are arrays of numbers or number arrays, nothing else
    ("law-probe", ["payoffs", "A", "h"], True),
    ("law-probe", ["payoffs", "A", "h"], 0),
    ("law-probe", ["payoffs", "A", "h"], {}),
    ("law-probe", ["payoffs", "A", "h"], "1.0"),
    ("law-probe", ["payoffs", "A", "h"], [[[1.0]], [[0.5]]]),
    ("law-probe", ["payoffs", "A", "htilde"], False),
    ("law-probe", ["payoffs", "A", "htilde"], 0),
    ("law-probe", ["payoffs", "A", "htilde"], {}),
    ("law-probe", ["payoffs", "A", "htilde"], ""),
    ("law-probe", ["payoffs", "A", "htilde"], [[[0.5, 0.5]], [[0.5, 0.5]]]),
]


@pytest.mark.parametrize("command, path, value", MALFORMED,
                         ids=[f"{'.'.join(p)}={v!r}" for _, p, v in MALFORMED])
def test_malformed_config_values_exit_1(tmp_path, capsys, command, path, value):
    cfg = json.loads(_base_config(
        tmp_path,
        lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE},
        payoffs={"X": {"kind": "expression", "expr": "W + C1"},
                 "Y": {"kind": "expression", "expr": "W - C2"},
                 "A": {"kind": "analytic", "h": [[1.0], [0.5]]}},
        drivers={"g": {"kind": "variance", "alpha": 1.0},
                 "gs": {"kind": "scaled", "gamma": 2.0,
                        "base": {"kind": "variance", "alpha": 1.0}},
                 "gc": {"kind": "cvar_jump", "a": 0.4}},
        deviation={"payoff": "X", "driver": "g"},
        axioms={"driver": "g", "payoffs": ["X", "Y"], "mixtures": 5},
        law_probe={"driver": "g", "pairs": [["X", "X"]], "analytic_pairs": [["A", "A"]]},
        share={"payoff_a": "X", "payoff_b": "Y", "driver_a": "gs", "driver_b": "gc"},
        check_driver={"driver": "g", "samples": 20},
    ).read_text())
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(out),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(out.glob("*")) == []


#: (command, key path, value): a JSON integer of 401 digits, beyond float
#: range, in each numeric key that a float is made of
BEYOND_FLOAT = [
    ("deviation", ["drivers", "g", "alpha"], 10 ** 400),
    ("deviation", ["drivers", "gA", "gamma"], -10 ** 400),
    ("build", ["lattice", "grid", "horizon"], 10 ** 400),
    ("build", ["lattice", "grid", "times"], [0.0, 0.5, 10 ** 400]),
    ("build", ["lattice", "noise", "jumps", "marks"], [-1.0, -10 ** 400]),
    ("build", ["lattice", "noise", "jumps", "intensities"], [0.25, 10 ** 400]),
    ("law-probe", ["law_probe", "law_tol"], 10 ** 400),
    ("deviation", ["solver", "tolerance"], 10 ** 400),
    ("deviation", ["solver", "attain_tolerance"], 10 ** 400),
    ("deviation", ["solver", "residual_tolerance"], 10 ** 400),
]


@pytest.mark.parametrize("command, path, value", BEYOND_FLOAT,
                         ids=[path[-1] for _, path, _ in BEYOND_FLOAT])
def test_a_number_beyond_float_range_exits_1_naming_its_key(tmp_path, capsys, command,
                                                            path, value):
    cfg = json.loads(_base_config(
        tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE},
        deviation={"payoff": "X", "driver": "g"},
        law_probe={"driver": "g", "pairs": [["X", "X"]]},
        solver={"tolerance": 1e-9, "attain_tolerance": 1e-5, "residual_tolerance": 1.0},
    ).read_text())
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(out),
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{path[-1]}'" in err and "Traceback" not in err
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("h, htilde", [(None, []), ([], None), ("absent", "absent")])
def test_analytic_integrands_absent_null_or_empty_are_zeros(tmp_path, h, htilde):
    payoff = {"kind": "analytic"}
    for key, value in (("h", h), ("htilde", htilde)):
        if value != "absent":
            payoff[key] = value
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": JUMP_NOISE},
                       payoffs={"A": payoff},
                       law_probe={"driver": "g", "analytic_pairs": [["A", "A"]]})
    assert main(["law-probe", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    entry, = json.loads((tmp_path / "law_probe.json").read_text())["report"]["entries"]
    assert entry["d0_first"] == entry["d0_second"] == 0.0


@pytest.mark.parametrize("pairs", [{"pairs": [["X", "X"]]}, {"analytic_pairs": [["A", "A"]]}],
                         ids=["lattice_pairs", "analytic_pairs_only"])
def test_a_negative_law_tol_exits_1(tmp_path, capsys, pairs):
    """A negative tolerance is refused before any pair is probed, however the
    pairs' laws compare; analytic pairs alone never compare laws at all."""
    cfg = _base_config(tmp_path, payoffs={"X": {"kind": "expression", "expr": "W"},
                                          "A": {"kind": "analytic", "h": [[1.0]] * 4}},
                       law_probe={"driver": "g", "law_tol": -1, **pairs})
    out = tmp_path / "out"
    assert main(["law-probe", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: law_tol must be >= 0\n"
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("command, block, message", [
    ("deviation", {"deviation": {"payoff": "A", "driver": "g"}}, "a lattice"),
    ("axioms", {"axioms": {"payoffs": ["X", "A"], "driver": "g"}}, "a lattice"),
    ("share", {"share": {"payoff_a": "X", "payoff_b": "A", "driver_a": "g",
                         "driver_b": "g"}}, "a lattice"),
    ("law-probe", {"law_probe": {"pairs": [["X", "A"]], "driver": "g"}}, "a lattice"),
    ("law-probe", {"law_probe": {"analytic_pairs": [["A", "X"]], "driver": "g"}},
     "an analytic"),
], ids=["deviation", "axioms", "share", "law_probe_pairs", "law_probe_analytic_pairs"])
def test_a_payoff_of_the_wrong_kind_exits_1(tmp_path, capsys, command, block, message):
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": {"d": 1}},
                       payoffs={"X": {"kind": "expression", "expr": "W**2"},
                                "A": {"kind": "analytic", "h": [[1.0], [0.5]]}}, **block)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    where = command.replace("-", "_")
    assert capsys.readouterr().err == f"error: {where}: payoff must be {message} payoff\n"
    assert list(out.glob("*")) == []


def test_leaf_budget_is_checked_before_the_grid_is_built(tmp_path, capsys):
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 10 ** 6, "horizon": 1.0},
                                          "noise": {"d": 1}})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["build", "--config", str(cfg), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "over the max_nodes budget" in capsys.readouterr().err
    assert peak < 2 ** 20


@pytest.mark.parametrize("grid", [{"n": 20, "horizon": 1.0},
                                  {"times": [0.0, 0.5, 1.0]}], ids=["uniform", "times"])
def test_brownian_dimension_is_checked_before_its_outcomes_are_counted(
        tmp_path, capsys, grid):
    cfg = _base_config(tmp_path, lattice={"grid": grid, "noise": {"d": 1000000}})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["build", "--config", str(cfg), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "d=1000000" in err and "over the max_nodes budget 1000000" in err
    assert peak < 2 ** 20


@pytest.mark.parametrize("probe, jumps, message", [
    ({"d": 100000}, False, "over the max_nodes budget 1000000"),
    ({"samples": 10 ** 12}, True, "over the max_nodes budget 1000000"),
    ({"d": -1}, False, "'d' must be >= 0"),
    ({"d": 0}, False, "probes only the origin"),
    ({"samples": 0}, False, "'samples' must be >= 1"),
], ids=["wide", "many_samples", "negative", "origin_only", "no_samples"])
def test_check_driver_probe_block_is_bounded_before_it_is_formed(
        tmp_path, capsys, probe, jumps, message):
    noise = JUMP_NOISE if jumps else {"d": 1}
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": noise},
                       check_driver={"driver": "g", **probe})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["check-driver", "--config", str(cfg), "--out", str(out), "--quiet"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "check_driver" in err and message in err
    assert peak < 2 ** 20
    assert not (out / "driver_check.json").exists()


def test_check_driver_probes_jumps_alone_at_d_zero(tmp_path):
    cfg = _base_config(tmp_path, lattice={"grid": {"n": 2, "horizon": 1.0},
                                          "noise": JUMP_NOISE},
                       check_driver={"driver": "g", "d": 0, "samples": 10})
    assert main(["check-driver", "--config", str(cfg), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "driver_check.json").read_text())
    # 2 jump axes both ways, 1 mark coordinate and 10 samples
    assert doc["all_passed"] is True and doc["report"]["samples_used"] == 15


# -- every command on every noise shape ---------------------------------------------

#: (d, m) noise shapes with d + m >= 1
NOISE_SHAPES = [(0, 2), (1, 0), (1, 2), (2, 0), (2, 2)]

#: the files each command writes
ARTIFACTS = {
    "build": {"lattice.json"},
    "deviation": {"deviation.csv", "integrands.json", "deviation_summary.json"},
    "axioms": {"axioms.json"},
    "law-probe": {"law_probe.json"},
    "share": {"share_argmins.csv", "transfer.csv", "share_summary.json"},
    "check-driver": {"driver_check.json"},
}

#: (command, d, m, driver): every command with ``Variance``, and the commands
#: that take one driver also with ``CVaRJump`` wherever there are jumps
SHAPE_CASES = [
    (command, d, m, driver)
    for command in ARTIFACTS for d, m in NOISE_SHAPES for driver in ("g", "gc")
    if driver == "g" or (m > 0 and command not in ("build", "share"))
]


@pytest.mark.parametrize("command, d, m, driver", SHAPE_CASES)
def test_every_command_runs_on_every_noise_shape(tmp_path, command, d, m, driver):
    jumps = {"marks": [-1.0, 2.0][:m], "intensities": [0.25, 0.5][:m]}
    leaves = (2 ** d * (m + 1)) ** 2
    write_payoff_csv(tmp_path / "z.csv", RandomVariable(np.linspace(-1.0, 2.0, leaves), 2))
    sources = [f"W{i + 1}" for i in range(d)] + [f"C{j + 1}" for j in range(m)]
    cfg = _base_config(
        tmp_path,
        lattice={"grid": {"n": 2, "horizon": 1.0}, "noise": {"d": d, "jumps": jumps}},
        payoffs={"X": {"kind": "expression", "expr": " + ".join(sources)},
                 "Y": {"kind": "expression",
                       "expr": " + ".join(f"{v}**2" for v in sources)
                       + "".join(f" + N{j + 1}" for j in range(m))},
                 "Z": {"kind": "csv", "path": "z.csv"}},
        drivers={"g": {"kind": "variance", "alpha": 1.0},
                 "gc": {"kind": "cvar_jump", "a": 0.4},
                 "gB": {"kind": "norm_cd", "c": 1.0, "d": 0.5}},
        deviation={"payoff": "Y", "driver": driver},
        axioms={"driver": driver, "payoffs": ["X", "Y"], "mixtures": 5},
        law_probe={"driver": driver, "pairs": [["X", "X"], ["Y", "Y"]]},
        share={"payoff_a": "Y", "payoff_b": "Z", "driver_a": driver, "driver_b": "gB"},
        check_driver={"driver": driver, "samples": 20},
    )
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert {p.name for p in out.iterdir()} == ARTIFACTS[command]


# -- artifacts: checked before any is written, each written as a fresh file ---------

SHARE = {"payoff_a": "X", "payoff_b": "Y", "driver_a": "gA", "driver_b": "gB"}
SHARE_ARTIFACTS = ("share_argmins.csv", "transfer.csv", "share_summary.json")


def _share(cfg, out):
    return main(["share", "--config", str(cfg), "--out", str(out), "--quiet"])


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    cfg = _base_config(tmp_path, share=SHARE)
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert _share(cfg, out) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: File exists\n"
    assert out.read_text() == "not a directory"


def test_directory_at_an_artifact_path_exits_1_and_writes_nothing(tmp_path, capsys):
    cfg = _base_config(tmp_path, share=SHARE)
    out = tmp_path / "out"
    (out / "share_summary.json").mkdir(parents=True)
    assert _share(cfg, out) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out / 'share_summary.json'}: Is a directory\n"
    assert [p.name for p in out.iterdir()] == ["share_summary.json"]


def test_rerun_writes_the_same_bytes_on_new_inodes(tmp_path):
    cfg = _base_config(tmp_path, share=SHARE)
    out, links = tmp_path / "out", tmp_path / "links"
    assert _share(cfg, out) == 0
    first = {name: (out / name).read_bytes() for name in SHARE_ARTIFACTS}
    links.mkdir()
    for name in SHARE_ARTIFACTS:  # a hard link shares the artifact's inode
        (links / name).hardlink_to(out / name)
        (links / name).write_bytes(b"stale")
    assert _share(cfg, out) == 0
    for name in SHARE_ARTIFACTS:
        assert (out / name).read_bytes() == first[name]
        assert (links / name).read_bytes() == b"stale"
        assert (out / name).stat().st_ino != (links / name).stat().st_ino


def test_a_symlinked_artifact_is_replaced_and_its_target_kept(tmp_path):
    cfg = _base_config(tmp_path, share=SHARE)
    out, target = tmp_path / "out", tmp_path / "kept.csv"
    out.mkdir()
    target.write_text("kept")
    (out / "transfer.csv").symlink_to(target)
    assert _share(cfg, out) == 0
    assert not (out / "transfer.csv").is_symlink()
    assert (out / "transfer.csv").read_bytes().startswith(b"leaf,value\r\n")
    assert target.read_text() == "kept"


def test_a_fresh_out_gets_the_bytes_of_a_rerun(tmp_path):
    cfg = _base_config(tmp_path, share=SHARE)
    fresh, reused = tmp_path / "fresh" / "nested", tmp_path / "reused"
    for out in (reused, reused, fresh):
        assert _share(cfg, out) == 0
    assert sorted(p.name for p in fresh.iterdir()) == sorted(SHARE_ARTIFACTS)
    for name in SHARE_ARTIFACTS:
        assert (fresh / name).read_bytes() == (reused / name).read_bytes()


def test_a_rerun_rewrites_each_single_link_artifact_in_place(tmp_path):
    """A regular file with one link keeps its inode and mode, and ends up with
    the bytes of a fresh run whether its old content was longer or shorter."""
    cfg = _base_config(tmp_path, share=SHARE)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert _share(cfg, out) == 0 and _share(cfg, fresh) == 0
    before = {}
    for at, name in enumerate(SHARE_ARTIFACTS):
        size = (out / name).stat().st_size
        (out / name).write_bytes(b"x" * (size * 3 if at % 2 else size // 2))
        (out / name).chmod(0o600)
        before[name] = (out / name).stat().st_ino
    assert _share(cfg, out) == 0
    for name in SHARE_ARTIFACTS:
        assert (out / name).stat().st_ino == before[name]
        assert (out / name).stat().st_mode & 0o777 == 0o600
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_a_shrinking_rerun_leaves_no_stale_tail(tmp_path):
    """``deviation`` on n = 6, then n = 3, then n = 6 again into one ``--out``:
    each run's artifacts are byte for byte those of a fresh directory."""
    def run(n, out):
        cfg = _base_config(tmp_path, lattice={"grid": {"n": n, "horizon": 1.0},
                                              "noise": {"d": 1}},
                           deviation={"payoff": "Y", "driver": "g"})
        assert main(["deviation", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    reused = tmp_path / "reused"
    for n in (6, 3, 6):
        assert run(n, reused) == run(n, tmp_path / f"fresh{n}")


def test_a_fifo_at_an_artifact_path_is_replaced_without_blocking(tmp_path):
    """Opening a FIFO to write blocks until a reader comes; the writer must
    replace it instead. Run in a subprocess so that a hang fails the test."""
    cfg = _base_config(tmp_path, share=SHARE)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    out.mkdir()
    os.mkfifo(out / "transfer.csv")
    proc = main_in_a_fresh_process(
        ["share", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    assert _share(cfg, fresh) == 0
    assert (out / "transfer.csv").is_file()
    for name in SHARE_ARTIFACTS:
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
