import json
import math

import numpy as np
import pytest

from devlat import JumpMeasure, RandomVariable, SolverConfig, build_lattice, \
    NoiseModel, TimeGrid, assemble, represent
from devlat.cli import main
from devlat.jsonio import write_payoff_csv
from devlat.representation import RepresentingPair

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


def test_unknown_reference_exits_1(tmp_path):
    cfg = _base_config(tmp_path, deviation={"payoff": "missing", "driver": "g"})
    assert main(["deviation", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_non_convergent_share_exits_2(tmp_path):
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
    code = main(["share", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert code == 2
    doc = json.loads((tmp_path / "share_summary.json").read_text())
    assert doc["attained"] is False


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
