"""Batch front end: build lattices, run evaluations and probes, emit reports.

One JSON config describes the lattice, named payoffs, named drivers and the
per-command blocks; a command then produces JSON summaries (and CSV node
dumps) under the output directory. All sampling flows from the single config
seed, and float formatting is fixed, so identical config + seed gives
byte-identical summaries.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .deviation import axiom_report, evaluate, evaluate_recursive, law_probe, \
    supermartingale_slack
from .drivers import check_driver, driver_from_dict
from .jsonio import canonical_json, lattice_to_dict, load_payoff_csv, \
    pair_to_dict, write_payoff_csv, write_process_csv
from .lattice import JumpMeasure, Lattice, NoiseModel, RandomVariable, TimeGrid, \
    build_lattice
from .optim import NumericError, SolverConfig
from .representation import AnalyticPayoff, RepresentingPair, assemble, represent
from .sharing import SharingProblem, proportional_share_factor, solve_sharing

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_INTERNAL = 3

COMMANDS = ("build", "deviation", "axioms", "law-probe", "share", "check-driver")


class ConfigError(ValueError):
    """The run configuration is malformed or references missing pieces."""


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _build_grid(obj: dict) -> TimeGrid:
    try:
        if "times" in obj:
            return TimeGrid(tuple(obj["times"]))
        return TimeGrid.uniform(int(_require(obj, "n", "grid")),
                                float(_require(obj, "horizon", "grid")))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _build_noise(obj: dict) -> NoiseModel:
    jumps = obj.get("jumps") or {}
    try:
        jm = JumpMeasure(
            tuple(jumps.get("marks", ())), tuple(jumps.get("intensities", ()))
        )
        return NoiseModel(int(obj.get("d", 0)), jm)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _build_lattice(cfg: dict) -> Lattice:
    block = _require(cfg, "lattice")
    grid = _build_grid(_require(block, "grid", "lattice"))
    noise = _build_noise(_require(block, "noise", "lattice"))
    try:
        return build_lattice(grid, noise, int(block.get("max_nodes", 1_000_000)))
    except ValueError as exc:
        raise ConfigError(f"lattice: {exc}") from exc


def _parse_solver(cfg: dict) -> SolverConfig:
    block = cfg.get("solver") or {}
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    unknown = set(block) - known
    if unknown:
        raise ConfigError(f"solver: unknown keys {sorted(unknown)}")
    try:
        return SolverConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_drivers(cfg: dict, solver: SolverConfig) -> dict:
    out = {}
    for name, obj in (cfg.get("drivers") or {}).items():
        try:
            out[name] = driver_from_dict(obj, solver)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"driver {name!r}: {exc}") from exc
    return out


def _expression_namespace(lat: Lattice) -> dict:
    n = lat.n_steps
    ns: dict = {
        "T": lat.grid.horizon,
        "abs": np.abs, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
        "sin": np.sin, "cos": np.cos, "maximum": np.maximum,
        "minimum": np.minimum, "where": np.where,
    }
    w = lat.brownian_states(n)
    for i in range(lat.noise.d):
        ns[f"W{i + 1}"] = w[:, i]
    if lat.noise.d == 1:
        ns["W"] = w[:, 0]
    counts = lat.jump_counts(n)
    for j in range(lat.noise.jumps.m):
        ns[f"N{j + 1}"] = counts[:, j]
        h = [np.zeros((lat.num_nodes(i), lat.noise.d)) for i in range(n)]
        ht = [np.zeros((lat.num_nodes(i), lat.noise.jumps.m)) for i in range(n)]
        for i in range(n):
            ht[i][:, j] = 1.0
        comp = assemble(lat, RepresentingPair(
            0.0, tuple(h), tuple(ht),
            tuple(np.zeros(lat.num_nodes(i)) for i in range(n)),
        ))
        ns[f"C{j + 1}"] = comp.values
    return ns


def _build_payoffs(cfg: dict, lat: Lattice, base_dir: Path) -> dict:
    out: dict = {}
    ns = None
    for name, obj in (cfg.get("payoffs") or {}).items():
        kind = obj.get("kind") if isinstance(obj, dict) else None
        try:
            if kind == "csv":
                path = Path(_require(obj, "path", f"payoff {name!r}"))
                if not path.is_absolute():
                    path = base_dir / path
                out[name] = load_payoff_csv(path, lat)
            elif kind == "expression":
                if ns is None:
                    ns = _expression_namespace(lat)
                expr = _require(obj, "expr", f"payoff {name!r}")
                values = eval(expr, {"__builtins__": {}}, dict(ns))
                values = np.broadcast_to(
                    np.asarray(values, dtype=float), (lat.num_nodes(lat.n_steps),)
                ).copy()
                out[name] = RandomVariable(values, lat.n_steps)
            elif kind == "analytic":
                n, d, m = lat.n_steps, lat.noise.d, lat.noise.jumps.m
                h = np.asarray(obj["h"], dtype=float).reshape(n, -1) \
                    if obj.get("h") else np.zeros((n, d))
                ht = np.asarray(obj["htilde"], dtype=float).reshape(n, -1) \
                    if obj.get("htilde") else np.zeros((n, m))
                out[name] = AnalyticPayoff(lat.grid, h, ht)
            else:
                raise ConfigError(
                    f"payoff {name!r}: kind must be csv, expression or analytic"
                )
        except ConfigError:
            raise
        except (OSError, SyntaxError, TypeError, ValueError, NameError) as exc:
            raise ConfigError(f"payoff {name!r}: {exc}") from exc
    return out


def _named(pool: dict, name: str, what: str):
    if name not in pool:
        raise ConfigError(f"{what} {name!r} is not defined in the config")
    return pool[name]


def _report_dict(report) -> dict:
    return dataclasses.asdict(report)


def _emit(path: Path, text: str, quiet: bool) -> None:
    path.write_text(text)
    if not quiet:
        print(f"wrote {path}")


# -- commands -----------------------------------------------------------------


def cmd_build(cfg, lat, out_dir, seed, quiet):
    _emit(out_dir / "lattice.json", canonical_json(lattice_to_dict(lat)), quiet)
    return EXIT_OK


def cmd_deviation(cfg, lat, out_dir, seed, quiet):
    block = _require(cfg, "deviation")
    solver = _parse_solver(cfg)
    drivers = _parse_drivers(cfg, solver)
    payoffs = _build_payoffs(cfg, lat, out_dir)
    driver = _named(drivers, _require(block, "driver", "deviation"), "driver")
    payoff = _named(payoffs, _require(block, "payoff", "deviation"), "payoff")
    if isinstance(payoff, AnalyticPayoff):
        raise ConfigError("deviation: payoff must be a lattice payoff")
    pair = represent(lat, payoff)
    dev = evaluate(lat, driver, pair)
    summary = {
        "command": "deviation",
        "seed": seed,
        "payoff": block["payoff"],
        "driver": block["driver"],
        "D0": dev.d0,
        "max_residual": pair.max_residual(),
        "supermartingale_slack": supermartingale_slack(lat, dev),
    }
    partition = block.get("partition")
    if partition is not None:
        rec = evaluate_recursive(lat, driver, pair, partition)
        summary["recursion_max_gap"] = max(
            float(np.max(np.abs(dev.at(i) - rec.at(i))))
            for i in range(lat.n_steps + 1)
        )
        summary["partition"] = sorted(set(int(i) for i in partition))
    write_process_csv(out_dir / "deviation.csv", dev.values.values)
    if not quiet:
        print(f"wrote {out_dir / 'deviation.csv'}")
    _emit(out_dir / "integrands.json", canonical_json(pair_to_dict(pair)), quiet)
    _emit(out_dir / "deviation_summary.json", canonical_json(summary), quiet)
    return EXIT_OK


def cmd_axioms(cfg, lat, out_dir, seed, quiet):
    block = _require(cfg, "axioms")
    solver = _parse_solver(cfg)
    drivers = _parse_drivers(cfg, solver)
    payoffs = _build_payoffs(cfg, lat, out_dir)
    driver = _named(drivers, _require(block, "driver", "axioms"), "driver")
    names = _require(block, "payoffs", "axioms")
    samples = [_named(payoffs, n, "payoff") for n in names]
    report = axiom_report(
        lat, driver, samples, seed=seed,
        level=block.get("level"), mixtures=int(block.get("mixtures", 50)),
    )
    payload = {"command": "axioms", "seed": seed, "driver": block["driver"],
               "payoffs": list(names), "report": _report_dict(report),
               "all_passed": report.all_passed()}
    _emit(out_dir / "axioms.json", canonical_json(payload), quiet)
    return EXIT_OK


def cmd_law_probe(cfg, lat, out_dir, seed, quiet):
    block = _require(cfg, "law_probe")
    solver = _parse_solver(cfg)
    drivers = _parse_drivers(cfg, solver)
    payoffs = _build_payoffs(cfg, lat, out_dir)
    driver = _named(drivers, _require(block, "driver", "law_probe"), "driver")

    def pick(name, analytic):
        p = _named(payoffs, name, "payoff")
        if analytic != isinstance(p, AnalyticPayoff):
            raise ConfigError(f"payoff {name!r} has the wrong kind for this pair list")
        return p

    lattice_pairs = [
        (pick(a, False), pick(b, False)) for a, b in block.get("pairs", [])
    ]
    analytic_pairs = [
        (pick(a, True), pick(b, True)) for a, b in block.get("analytic_pairs", [])
    ]
    report = law_probe(lat, driver, lattice_pairs, analytic_pairs,
                       law_tol=float(block.get("law_tol", 1e-8)))
    payload = {"command": "law_probe", "seed": seed, "driver": block["driver"],
               "report": _report_dict(report)}
    _emit(out_dir / "law_probe.json", canonical_json(payload), quiet)
    return EXIT_OK


def cmd_share(cfg, lat, out_dir, seed, quiet):
    block = _require(cfg, "share")
    solver = _parse_solver(cfg)
    drivers = _parse_drivers(cfg, solver)
    payoffs = _build_payoffs(cfg, lat, out_dir)
    prob = SharingProblem(
        x_a=_named(payoffs, _require(block, "payoff_a", "share"), "payoff"),
        x_b=_named(payoffs, _require(block, "payoff_b", "share"), "payoff"),
        driver_a=_named(drivers, _require(block, "driver_a", "share"), "driver"),
        driver_b=_named(drivers, _require(block, "driver_b", "share"), "driver"),
        solver=solver,
    )
    if isinstance(prob.x_a, AnalyticPayoff) or isinstance(prob.x_b, AnalyticPayoff):
        raise ConfigError("share: payoffs must be lattice payoffs")
    sol = solve_sharing(lat, prob)
    summary = {
        "command": "share",
        "seed": seed,
        "share_factor": proportional_share_factor(prob.driver_a, prob.driver_b),
        "price": sol.price,
        "du_a": sol.du_a,
        "du_b": sol.du_b,
        "attained": sol.attained,
        "certificate_gap": sol.certificate_gap,
        "max_residual": sol.max_residual,
        "infconv_D0": sol.infconv_d.d0,
        "D0_a_standalone": sol.d0_a,
        "D0_b_standalone": sol.d0_b,
    }
    d, m = lat.noise.d, lat.noise.jumps.m
    write_process_csv(
        out_dir / "share_argmins.csv",
        [np.hstack([h, ht]) for h, ht in zip(sol.argmin_H, sol.argmin_Ht)],
        columns=[f"z{i + 1}" for i in range(d)] + [f"ztilde{j + 1}" for j in range(m)],
    )
    if not quiet:
        print(f"wrote {out_dir / 'share_argmins.csv'}")
    write_payoff_csv(out_dir / "transfer.csv", sol.y_tilde_star)
    if not quiet:
        print(f"wrote {out_dir / 'transfer.csv'}")
    _emit(out_dir / "share_summary.json", canonical_json(summary), quiet)
    if not sol.attained:
        print("sharing solve did not attain the optimum at every node",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_check_driver(cfg, lat, out_dir, seed, quiet):
    block = _require(cfg, "check_driver")
    solver = _parse_solver(cfg)
    drivers = _parse_drivers(cfg, solver)
    driver = _named(drivers, _require(block, "driver", "check_driver"), "driver")
    report = check_driver(
        driver, lat.noise.jumps,
        sample_count=int(block.get("samples", 200)),
        seed=seed, d=int(block.get("d", max(lat.noise.d, 1))),
    )
    payload = {"command": "check_driver", "seed": seed,
               "driver": block["driver"], "report": _report_dict(report),
               "all_passed": report.all_passed()}
    _emit(out_dir / "driver_check.json", canonical_json(payload), quiet)
    return EXIT_OK


_DISPATCH = {
    "build": cmd_build,
    "deviation": cmd_deviation,
    "axioms": cmd_axioms,
    "law-probe": cmd_law_probe,
    "share": cmd_share,
    "check-driver": cmd_check_driver,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="devlat",
        description="Deviation evaluation and risk sharing on finite event lattices",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out_dir = Path(args.out or cfg.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        lat = _build_lattice(cfg)
        return _DISPATCH[args.command](cfg, lat, out_dir, seed, args.quiet)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
