"""Compare the artifact digests of two checkouts over every benchmark pool job.

    python3 tools/compare_artifacts.py PARENT CHANGE

Each checkout runs every pool job of every workload in its own subprocess,
with its own ``src`` and its own ``perfbench`` harness, one BLAS thread and
no bytecode written. Jobs write only under a temporary directory; nothing is
written under either checkout, and no reference digest is read or recorded.
Prints the keys whose digests differ and the jobs that miss their oracle, and
exits 1 if there are any, else 0.

Each job kind reruns into one out directory, so the check covers artifacts
rewritten in place over the longer and shorter ones of earlier jobs.

No pool job reaches the numeric split, so each checkout also digests
``infconv_split`` on a fixed seeded set of rows of eight two-part numeric
pairs, at d = 1 and 2 (``split_digests``); a differing split digest counts
as a differing pool digest.

No pool job reaches the one-point entry points either, nor a failing
``check_driver``, so each checkout also digests those on fixed seeded inputs
(``probe_digests``): every built-in kind's value, subgradient and JSON round
trip, both CVaR functions, ``infconv_value`` on a closed-form and a numeric
pair, and ``check_driver`` reports of the built-in kinds and of ``Custom``
drivers that fail; a differing probe digest counts as a differing pool digest.

A pool run renders one lattice shape per workload, so each checkout also
renders the per-node artifacts of several lattices in turn in one process
(``render_digests``): binomial n = 3, 4 and 3 again, a jump lattice of n = 3
(the level table's row counts of binomial n = 3, other ``nodes`` ints), more
CSV layouts than a per-layout text cache would keep, tables of no rows and
-0.0 cells, and a NaN refused on a repeat render. A text rendered from a
stale cached layout shows up as a render digest that differs between the
checkouts, and counts as a differing pool digest.

Each checkout also runs the CLI on fixed malformed configs and digests each
run's exit code and stderr (``refusal_digests``): the ``axioms`` budgets, the
``check-driver`` probe block, a partition without level n and a 401-digit
integer in each of seven numeric keys and, beside a numeric share pair, in
each of the solver's three tolerances; and a config path too long for the
file system and a config nested deeper than the JSON parser recurses. The
rows of ``EXIT_CHANGES`` may go from their declared exit at the parent to
their declared exit at the change; any other differing refusal digest counts
as a differing pool digest.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}


def _quadratic(t, h, ht, nu):
    return float(h @ h + 0.5 * (ht * ht) @ nu.intensity_array)


def _quadratic_subgradient(t, h, ht, nu):
    return np.concatenate([2.0 * h, ht * nu.intensity_array])


def _pinball(t, h, ht, nu):
    return float(np.abs(h).sum() + np.maximum(0.7 * ht, -0.3 * ht) @ nu.intensity_array)


def _pinball_subgradient(t, h, ht, nu):
    jump = np.where(ht > 0.0, 0.7, np.where(ht < 0.0, -0.3, 0.0)) * nu.intensity_array
    return np.concatenate([np.sign(h), jump])


def _linear(t, h, ht, nu):
    return float(h.sum() + ht @ nu.intensity_array)


def _linear_subgradient(t, h, ht, nu):
    return np.concatenate([np.ones_like(h), nu.intensity_array])


def _root(t, h, ht, nu):
    return float(np.sqrt(np.abs(h)).sum() + np.sqrt(np.abs(ht)) @ nu.intensity_array)


def _wrong_subgradient(t, h, ht, nu):
    return -_quadratic_subgradient(t, h, ht, nu)


def _digest(*parts) -> str:
    """sha256 of strings and float arrays, each ending in a separator."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode() if isinstance(part, str)
                      else np.asarray(part, dtype=float).tobytes())
        hasher.update(b"|")
    return hasher.hexdigest()


def probe_digests(devlat) -> dict:
    """``{key: sha256}`` of the one-point entry points, the driver JSON
    mapping and ``check_driver`` on fixed seeded inputs at d = 1 and 2, with
    two jump marks and the default solver settings; built from public names
    only."""
    from devlat.jsonio import canonical_json

    nu = devlat.JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))
    kinds = {
        "variance": devlat.Variance(1.5),
        "norm_cd": devlat.NormCD(1.0, 2.0),
        "cvar_jump": devlat.CVaRJump(0.3),
        "scaled": devlat.Scaled(2.0, devlat.NormCD(0.5, 1.5)),
        "infconv": devlat.InfConv(devlat.Variance(1.0), devlat.NormCD(1.0, 2.0)),
    }
    failing = {
        "custom-negative": devlat.Custom(_linear, _linear_subgradient, "linear"),
        "custom-nonconvex": devlat.Custom(_root, _quadratic_subgradient, "root"),
        "custom-subgradient": devlat.Custom(_quadratic, _wrong_subgradient, "wrong"),
        "custom-no-oracle": devlat.Custom(_quadratic, None, "no-oracle"),
    }
    pairs = {
        "closed": (devlat.NormCD(1.0, 0.5), devlat.Variance(2.0)),
        "numeric": (devlat.CVaRJump(0.3), devlat.Variance(1.0)),
    }
    digests = {}
    for seed, d in enumerate((1, 2)):
        rng = np.random.default_rng(100 + seed)
        H, Ht = rng.normal(size=(4, d)), rng.normal(size=(4, nu.m))
        Ht[0] = Ht[0, 0]  # tied marks
        for name, spec in kinds.items():
            values = [devlat.eval_driver(spec, 0.5, h, ht, nu) for h, ht in zip(H, Ht)]
            grads = [devlat.subgradient(spec, 0.5, h, ht, nu) for h, ht in zip(H, Ht)]
            digests[f"probe/value/{name}/d{d}"] = _digest(values, *grads)
        for a in (0.1, 0.25, 0.6):
            digests[f"probe/cvar/a{a}/d{d}"] = _digest(
                [devlat.var_nu(a, ht, nu) for ht in Ht], [devlat.cvar_nu(a, ht, nu) for ht in Ht])
        for name, (g_a, g_b) in pairs.items():
            results = [devlat.infconv_value(g_a, g_b, 0.5, h, ht, nu) for h, ht in zip(H, Ht)]
            digests[f"probe/infconv_value/{name}/d{d}"] = _digest(
                *(part for value, (z, zt) in results for part in ([value], z, zt)))
        for name, spec in {**kinds, **failing}.items():
            report = devlat.check_driver(spec, nu, sample_count=40, seed=seed, d=d)
            digests[f"probe/check/{name}/d{d}"] = _digest(
                canonical_json(dataclasses.asdict(report)), str(report.all_passed()))
    for name, spec in kinds.items():
        text = canonical_json(devlat.driver_to_dict(spec))
        back = devlat.driver_from_dict(json.loads(text))
        digests[f"probe/json/{name}"] = _digest(
            text, canonical_json(devlat.driver_to_dict(back)), str(back == spec))
    return digests


def split_digests(devlat) -> dict:
    """``{key: sha256}`` of ``infconv_split`` on 6 seeded rows of each of
    eight two-part numeric pairs at d = 1 and 2, with two jump marks and the
    default solver settings; built from public names only."""
    nu = devlat.JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5))
    cvar = devlat.CVaRJump(0.3)
    quadratic = devlat.Custom(_quadratic, _quadratic_subgradient, "quadratic")
    pinball = devlat.Custom(_pinball, _pinball_subgradient, "pinball")
    pairs = {
        "cvar-variance": (cvar, devlat.Variance(1.0)),
        "cvar-norm": (cvar, devlat.NormCD(1.0, 2.0)),
        "cvar-cvar": (cvar, devlat.CVaRJump(0.6)),
        "cvar-scaled": (cvar, devlat.Scaled(2.0, devlat.CVaRJump(0.5))),
        "quadratic-variance": (quadratic, devlat.Variance(2.0)),
        "pinball-norm": (pinball, devlat.NormCD(0.5, 1.5)),
        "infconv-variance": (devlat.InfConv(devlat.Variance(1.0), cvar), devlat.Variance(1.0)),
        "pinball-variance": (pinball, devlat.Variance(1.0)),
    }
    digests = {}
    for seed, (name, (g_a, g_b)) in enumerate(pairs.items()):
        rng = np.random.default_rng(seed)
        for d in (1, 2):
            H, Ht = rng.normal(size=(6, d)), rng.normal(size=(6, nu.m))
            Z, Zt = devlat.infconv_split(g_a, g_b, 0.0, H, Ht, nu)
            digests[f"split/{name}/d{d}"] = hashlib.sha256(Z.tobytes() + Zt.tobytes()).hexdigest()
    return digests


def render_digests(devlat) -> dict:
    """``{key: sha256}`` of the per-node artifacts (``integrands.json``,
    ``lattice.json`` and its level table alone, ``deviation.csv``, a payoff
    CSV) of binomial n = 3, 4, 3 and a jump lattice of n = 3, rendered in
    turn in one process with seeded values holding -0.0; of 25 two-column
    CSV blocks of 1..24 rows and the first again; of a document with a table
    of no rows, twice; and of the message of a NaN refused on a repeat
    render. Public names only."""
    from devlat.jsonio import ColumnTable, canonical_json, lattice_to_dict, pair_to_dict, \
        payoff_csv, process_csv

    grid = devlat.TimeGrid.uniform
    lattices = {
        "binomial3": devlat.build_lattice(grid(3, 1.0), devlat.NoiseModel.brownian(1)),
        "binomial4": devlat.build_lattice(grid(4, 1.0), devlat.NoiseModel.brownian(1)),
        "jumps3": devlat.build_lattice(grid(3, 1.0), devlat.NoiseModel(
            1, devlat.JumpMeasure(((-1.0,), (2.0,)), (0.25, 0.5)))),
    }
    digests = {}
    for at, name in enumerate(["binomial3", "binomial4", "binomial3", "jumps3", "binomial3"]):
        lat, rng = lattices[name], np.random.default_rng(at)
        d, m = lat.noise.d, lat.noise.jumps.m
        sizes = [lat.num_nodes(i) for i in range(lat.n_steps + 1)]

        def draw(*shape):
            cells = rng.normal(size=shape)
            cells.flat[::5] = -0.0
            return cells

        pair = devlat.RepresentingPair(0.25, tuple(draw(k, d) for k in sizes[:-1]),
                                       tuple(draw(k, m) for k in sizes[:-1]),
                                       tuple(draw(k) for k in sizes[:-1]))
        texts = {"integrands": canonical_json(pair_to_dict(pair)),
                 "lattice": canonical_json(lattice_to_dict(lat)),
                 "levels": canonical_json({"levels": lattice_to_dict(lat)["levels"]}),
                 "deviation": process_csv([draw(k) for k in sizes]),
                 "payoff": payoff_csv(devlat.RandomVariable(draw(sizes[-1]), lat.n_steps))}
        for kind, text in texts.items():
            digests[f"render/{at}-{name}/{kind}"] = _digest(text)
    rng = np.random.default_rng(99)
    blocks = [rng.normal(size=(rows, 2)) for rows in range(1, 25)]
    for at, block in enumerate([*blocks, blocks[0]]):
        digests[f"render/block/{at}"] = _digest(process_csv([block], columns=("a", "b")))
    for at, cells in enumerate(([0.5, -0.0], [-0.0, 1.5])):
        doc = {"empty": ColumnTable({"x": np.zeros(0)}),
               "rows": ColumnTable({"x": np.array(cells), "k": np.arange(2)})}
        digests[f"render/empty/{at}"] = _digest(canonical_json(doc))
    try:
        canonical_json({"rows": ColumnTable({"x": np.array([np.nan, 0.5]), "k": np.arange(2)})})
    except ValueError as exc:
        digests["render/nan-repeat"] = _digest(str(exc))
    return digests


#: the config every refusal mutates: a two-step jump lattice, two payoffs,
#: a variance and a scaled driver, and one block per command
REFUSAL_BASE = {
    "seed": 7,
    "lattice": {"grid": {"n": 2, "horizon": 1.0},
                "noise": {"d": 1, "jumps": {"marks": [-1.0, 2.0], "intensities": [0.25, 0.5]}}},
    "payoffs": {"X": {"kind": "expression", "expr": "W + C1"},
                "Y": {"kind": "expression", "expr": "W**2"}},
    "drivers": {"g": {"kind": "variance", "alpha": 1.0},
                "gs": {"kind": "scaled", "gamma": 2.0,
                       "base": {"kind": "variance", "alpha": 1.0}}},
    "deviation": {"payoff": "X", "driver": "g"},
    "axioms": {"driver": "g", "payoffs": ["X", "Y"], "mixtures": 5},
    "law_probe": {"driver": "g", "pairs": [["X", "X"]]},
    "check_driver": {"driver": "g", "samples": 20},
}

#: name -> (command, {key path: value}) of each malformed config
REFUSALS = {
    "axioms/mixtures-over-max-nodes": ("axioms", {
        ("lattice", "max_nodes"): 100, ("axioms", "mixtures"): 101}),
    "axioms/probe-cells-over-64-max-nodes": ("axioms", {
        ("lattice", "grid", "n"): 6, ("lattice", "noise"): {"d": 1},
        ("payoffs", "X", "expr"): "W", ("lattice", "max_nodes"): 64,
        ("axioms", "mixtures"): 62}),
    "check-driver/wide": ("check-driver", {
        ("lattice", "noise"): {"d": 1}, ("check_driver", "d"): 100000}),
    "check-driver/many-samples": ("check-driver", {("check_driver", "samples"): 10 ** 12}),
    "check-driver/negative-d": ("check-driver", {
        ("lattice", "noise"): {"d": 1}, ("check_driver", "d"): -1}),
    "check-driver/origin-only": ("check-driver", {
        ("lattice", "noise"): {"d": 1}, ("check_driver", "d"): 0}),
    "check-driver/no-samples": ("check-driver", {
        ("lattice", "noise"): {"d": 1}, ("check_driver", "samples"): 0}),
    "deviation/partition-without-n": ("deviation", {("deviation", "partition"): [0, 1]}),
    "overflow/alpha": ("deviation", {("drivers", "g", "alpha"): 10 ** 400}),
    "overflow/gamma": ("deviation", {("drivers", "gs", "gamma"): 10 ** 400}),
    "overflow/horizon": ("build", {("lattice", "grid", "horizon"): 10 ** 400}),
    "overflow/times": ("build", {("lattice", "grid", "times"): [0.0, 0.5, 10 ** 400]}),
    "overflow/marks": ("build", {("lattice", "noise", "jumps", "marks"): [-1.0, 10 ** 400]}),
    "overflow/intensities": ("build", {
        ("lattice", "noise", "jumps", "intensities"): [0.25, 10 ** 400]}),
    "overflow/law_tol": ("law-probe", {("law_probe", "law_tol"): 10 ** 400}),
    # a share whose every node takes the numeric split, cvar_jump(0.4) against
    # gs, under a budget too small to attain the optimum (exit 2 at the parent)
    **{f"overflow/{key}": ("share", {
        ("drivers", "gc"): {"kind": "cvar_jump", "a": 0.4},
        ("share",): {"payoff_a": "X", "payoff_b": "Y", "driver_a": "gc", "driver_b": "gs"},
        ("solver",): {"max_iterations": 30, "stall_window": 10, "polish_iterations": 5,
                      key: 10 ** 400}})
       for key in ("tolerance", "attain_tolerance", "residual_tolerance")},
}

#: name -> the bytes of each config file the reader must refuse, None for a
#: name too long for the file system; each run as ``build``
CONFIG_FILES = {
    "config/name-too-long": None,
    "config/nested-too-deeply": b"[" * 100_000,
}

#: refusal rows whose exit code changes on purpose: (exit at the parent,
#: exit at the change); a 401-digit integer was once an ``OverflowError``
#: traceback (exit 3) or, in a tolerance, a number the solve compared, and
#: both config files an ``OSError`` or a ``RecursionError`` traceback
EXIT_CHANGES = {
    **{f"refusal/overflow/{key}": (3, 1) for key in (
        "alpha", "gamma", "horizon", "times", "marks", "intensities", "law_tol", "tolerance")},
    "refusal/overflow/attain_tolerance": (0, 1),
    "refusal/overflow/residual_tolerance": (2, 1),
    **{f"refusal/{name}": (3, 1) for name in CONFIG_FILES},
}


def refusal_digests(devlat) -> dict:
    """``{key: [exit code, sha256 of stderr]}`` of one CLI run per malformed
    config of ``REFUSALS`` and per config file of ``CONFIG_FILES``, each in a
    fresh temporary directory."""
    runs = {}
    for name, (command, changes) in REFUSALS.items():
        cfg = copy.deepcopy(REFUSAL_BASE)
        for path, value in changes.items():
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        runs[name] = (command, json.dumps(cfg).encode())
    runs.update((name, ("build", data)) for name, data in CONFIG_FILES.items())
    digests = {}
    for name, (command, data) in runs.items():
        with tempfile.TemporaryDirectory(prefix="compare_refusals_") as tmp:
            config = Path(tmp) / ("config.json" if data is not None else "x" * 5000)
            if data is not None:
                config.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = devlat.cli.main([command, "--config", str(config),
                                        "--out", str(Path(tmp) / "out"), "--quiet"])
        digests[f"refusal/{name}"] = [code, hashlib.sha256(err.getvalue().encode()).hexdigest()]
    return digests


def collect(checkout: Path) -> dict:
    """``{"digests": {key: digest}, "failures": {key: error}, "splits": {key:
    digest}, "refusals": {key: [code, digest]}}`` of every pool job, numeric
    split, probe, render and refusal, run in this process from ``checkout``."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads
    from worker import Runner, setup

    digests, failures = {}, {}
    with tempfile.TemporaryDirectory(prefix="compare_artifacts_") as tmp:
        for name, wl in workloads.WORKLOADS.items():
            devlat, lat = setup(name)
            runner = Runner(devlat, lat, name, Path(tmp) / name, {})
            for kind in wl.kinds:
                for idx in range(wl.pool):
                    record = runner.run(workloads.Job(name, kind, idx))
                    if record["error"]:
                        failures[record["key"]] = record["error"]
                    else:
                        digests[record["key"]] = record["digest"]
    return {"digests": digests, "failures": failures,
            "splits": {**split_digests(devlat), **probe_digests(devlat),
                       **render_digests(devlat)},
            "refusals": refusal_digests(devlat)}


def run_checkout(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--collect", str(checkout)],
                          env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: collecting digests failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--collect":
        print(json.dumps(collect(Path(argv[1]).resolve())))
        return 0
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (run_checkout(Path(arg).resolve()) for arg in argv)
    keys = sorted(parent["digests"].keys() | change["digests"].keys()
                  | parent["failures"].keys() | change["failures"].keys())
    differ = [key for key in keys
              if parent["digests"].get(key) != change["digests"].get(key)]
    for key in differ:
        print(f"DIFFERS {key}")
    for label, run in (("parent", parent), ("change", change)):
        for key, error in sorted(run["failures"].items()):
            print(f"FAILED {label} {key}: {error}")
    splits = sorted(parent["splits"].keys() | change["splits"].keys())
    split_differ = [key for key in splits
                    if parent["splits"].get(key) != change["splits"].get(key)]
    for key in split_differ:
        print(f"DIFFERS {key}")
    same = len(keys) - len(differ)
    failed = len(parent["failures"]) + len(change["failures"])
    print(f"{same}/{len(keys)} digests identical, {failed} oracle failures")
    for label, prefix in (("numeric split", "split/"), ("probe", "probe/"),
                          ("render", "render/")):
        keys = [key for key in splits if key.startswith(prefix)]
        same = sum(key not in split_differ for key in keys)
        print(f"{same}/{len(keys)} {label} digests identical")
    refusals = sorted(parent["refusals"].keys() | change["refusals"].keys())
    declared, refusal_differ = [], []
    for key in refusals:
        was, now = parent["refusals"].get(key), change["refusals"].get(key)
        if was == now:
            continue
        if was and now and EXIT_CHANGES.get(key) == (was[0], now[0]):
            declared.append(key)
        else:
            refusal_differ.append(key)
            print(f"DIFFERS {key}")
    print(f"{len(refusals) - len(refusal_differ) - len(declared)}/{len(refusals)} refusal "
          f"digests identical, {len(declared)} declared exit changes")
    return 1 if differ or split_differ or refusal_differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
