"""Batch front end: build lattices, run evaluations and probes, emit reports.

One JSON config describes the lattice, named payoffs, named drivers and the
per-command blocks; a command then produces JSON summaries (and CSV node
dumps), which ``main`` writes under the output directory only once every one
of them has been rendered and every target checked. All sampling flows from
the single config seed, and float formatting is fixed, so identical config +
seed gives byte-identical summaries.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import errno
import functools
import json
import math
import operator
import sys
import traceback
from pathlib import Path

import numpy as np

from .deviation import axiom_report, evaluate, law_probe, recursion_gap, \
    supermartingale_slack
from .drivers import check_driver, driver_from_dict, probe_count
from .jsonio import canonical_json, lattice_to_dict, load_payoff_csv, \
    pair_to_dict, payoff_csv, process_csv, read_regular_file, write_artifacts
from .lattice import DEFAULT_MAX_NODES, JumpMeasure, Lattice, NoiseModel, \
    RandomVariable, TimeGrid, build_lattice, finite_number
from .optim import NumericError, SolverConfig
from .representation import AnalyticPayoff, represent
from .sharing import SharingProblem, solve_sharing

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    """The run configuration is malformed or references missing pieces."""


def _integer(v) -> bool:
    # node counts and indices are numpy int64s
    return finite_number(v) and isinstance(v, int) and -2**63 <= v < 2**63


def _array_of(item):
    return lambda v: isinstance(v, list) and all(map(item, v))


#: what a config value may be, by the phrase its error message uses
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "a number": finite_number,
    "an integer": _integer,
    "an array of numbers": _array_of(finite_number),
    "an array of integers": _array_of(_integer),
    "an array of strings": _array_of(lambda v: isinstance(v, str)),
    "an array of name pairs": _array_of(
        lambda v: _KINDS["an array of strings"](v) and len(v) == 2),
    "an array of numbers or number arrays": _array_of(
        lambda v: finite_number(v) or _array_of(finite_number)(v)),
}

_MISSING = object()


def _get(obj: dict, key: str, kind: str, where: str = "config", default=_MISSING):
    """``obj[key]``, which must be ``kind`` (a key of ``_KINDS``).

    An absent key gives ``default``, and so does null where the default is
    None; without a default it is a ``ConfigError``, as is a value of any
    other kind or a non-finite number. This is where config values are checked
    for presence and JSON kind; ranges are checked by their constructors.
    """
    value = obj.get(key)
    if value is None and (key not in obj or default is None):
        if default is _MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    if not _KINDS[kind](value):
        raise ConfigError(f"{where}: {key!r} must be {kind}")
    return value


#: the errors of reading a config path that mean no config file is there:
#: no such path, a loop of links, or a file that is not regular
_NO_CONFIG = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.EISDIR, errno.EINVAL})


def _load_config(path: str) -> dict:
    """The config file's JSON object, read as UTF-8 by ``read_regular_file``,
    which refuses anything but a regular file before reading it, so a FIFO
    never blocks the run."""
    try:
        cfg = json.loads(read_regular_file(path).decode("utf-8"))
    except OSError as exc:  # such as a path too long for the file system
        if exc.errno in _NO_CONFIG:
            raise ConfigError(f"config file not found: {path}") from exc
        raise ConfigError(f"config file cannot be read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


class _refused(contextlib.AbstractContextManager):
    """Turn a library refusal, a ``ValueError``, into the exit-1 error
    prefixed by ``where``; a class, as it runs several times per job."""

    def __init__(self, where: str):
        self.where = where

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise ConfigError(f"{self.where}: {exc}") from exc


def _build_grid(obj: dict, noise: NoiseModel, max_nodes: int) -> TimeGrid:
    """The time grid; a uniform one only once ``n`` is within the leaf budget."""
    times = _get(obj, "times", "an array of numbers", "lattice.grid", None)
    if times is None:
        n = _get(obj, "n", "an integer", "lattice.grid")
        horizon = float(_get(obj, "horizon", "a number", "lattice.grid"))
    with _refused("grid"):
        if times is not None:
            return TimeGrid(tuple(times))
        noise.check_budget(n, max_nodes)
        return TimeGrid.uniform(n, horizon)


def _build_noise(obj: dict) -> NoiseModel:
    jumps = _get(obj, "jumps", "an object", "lattice.noise", None) or {}
    marks = _get(jumps, "marks", "an array of numbers or number arrays",
                 "lattice.noise.jumps", [])
    intensities = _get(jumps, "intensities", "an array of numbers",
                       "lattice.noise.jumps", [])
    d = _get(obj, "d", "an integer", "lattice.noise", 0)
    with _refused("noise"):
        return NoiseModel(d, JumpMeasure(tuple(marks), tuple(intensities)))


#: the latest lattice ``_build_lattice`` returned: (its block's ``repr``, the lattice)
_latest: tuple | None = None


def _build_lattice(cfg: dict) -> Lattice:
    """The lattice of the config's ``lattice`` block; a block whose ``repr``
    is the previous call's returns that call's lattice. ``repr`` tells
    ``-0.0`` from ``0.0``, ``true`` from ``1`` and ``1`` from ``1.0``, which
    ``==`` does not; only the latest block is kept."""
    global _latest
    block = _get(cfg, "lattice", "an object")
    key = repr(block)
    if _latest is None or _latest[0] != key:
        noise = _build_noise(_get(block, "noise", "an object", "lattice"))
        max_nodes = _get(block, "max_nodes", "an integer", "lattice", DEFAULT_MAX_NODES)
        grid = _build_grid(_get(block, "grid", "an object", "lattice"), noise, max_nodes)
        with _refused("lattice"):
            _latest = (key, build_lattice(grid, noise, max_nodes))
    return _latest[1]


def _parse_drivers(cfg: dict) -> tuple[SolverConfig, dict]:
    """The solver block and the named drivers, which share it."""
    block = _get(cfg, "solver", "an object", default=None) or {}
    unknown = set(block) - {f.name for f in dataclasses.fields(SolverConfig)}
    if unknown:
        raise ConfigError(f"solver: unknown keys {sorted(unknown)}")
    with _refused("solver"):
        solver = SolverConfig(**block)
    out = {}
    for name, obj in (_get(cfg, "drivers", "an object", default=None) or {}).items():
        with _refused(f"driver {name!r}"):
            out[name] = driver_from_dict(obj, solver)
    return solver, out


#: the numpy functions an expression payoff may call
_EXPRESSION_FUNCTIONS = {
    "abs": np.abs, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
    "sin": np.sin, "cos": np.cos, "maximum": np.maximum,
    "minimum": np.minimum, "where": np.where,
}

#: the operators an expression payoff may use, with their float semantics
_EXPRESSION_OPERATORS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
}


def _expression_namespace(lat: Lattice) -> dict:
    n = lat.n_steps
    ns: dict = {"T": lat.grid.horizon, **_EXPRESSION_FUNCTIONS}
    w = lat.brownian_states(n)
    for i in range(lat.noise.d):
        ns[f"W{i + 1}"] = w[:, i]
    if lat.noise.d == 1:
        ns["W"] = w[:, 0]
    counts, comp = lat.jump_counts(n), lat.compensated_counts(n)
    for j in range(lat.noise.jumps.m):
        ns[f"N{j + 1}"] = counts[:, j]
        ns[f"C{j + 1}"] = comp[:, j]
    return ns


def _literal_value(node: ast.AST, args: list, expr: str) -> float:
    """The value in floats of a subtree made of literals only, from its
    operands' values; a raising, complex or non-finite result is refused."""
    try:
        with np.errstate(all="raise"):
            if isinstance(node, ast.Constant):
                value = float(node.value)
            elif isinstance(node, ast.Compare):
                value = float(all(_EXPRESSION_OPERATORS[type(op)](a, b)
                                  for op, a, b in zip(node.ops, args, args[1:])))
            elif isinstance(node, ast.Call):
                value = _EXPRESSION_FUNCTIONS[node.func.id](*args)
            else:
                value = _EXPRESSION_OPERATORS[type(node.op)](*args)
        if not isinstance(value, complex) and math.isfinite(value):
            return float(value)
        problem = f"gives {value}"
    except (ArithmeticError, TypeError, ValueError) as exc:
        problem = f"raises {type(exc).__name__}: {exc}"
    text = ast.get_source_segment(expr, node) or type(node).__name__
    raise ValueError(f"expression: {text[:60]!r} {problem}; need a finite real number")


def _compile_expression(expr: str, ns: dict):
    """Parse an expression payoff and refuse every construct outside its
    grammar: names of the namespace, int and float literals, arithmetic and
    comparison operators, and positional calls of ``_EXPRESSION_FUNCTIONS``.
    Every subtree made of literals only is evaluated once in floats and must
    give a finite real number, which refuses ``1/0``, ``10**400``,
    ``(-8)**(1/3)`` and power towers such as ``9**9**9**9`` before they run.
    Returns the compiled validated tree."""
    try:
        tree = ast.parse(expr, mode="eval")
    except (MemoryError, RecursionError) as exc:  # the parser's depth limits
        raise ValueError("expression: nested too deeply") from exc
    order, stack = [], [tree.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and node.id in ns \
                and node.id not in _EXPRESSION_FUNCTIONS:
            continue
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            operands = []
        elif isinstance(node, (ast.BinOp, ast.UnaryOp)) \
                and type(node.op) in _EXPRESSION_OPERATORS:
            operands = [node.left, node.right] if isinstance(node, ast.BinOp) \
                else [node.operand]
        elif isinstance(node, ast.Compare) \
                and all(type(op) in _EXPRESSION_OPERATORS for op in node.ops):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _EXPRESSION_FUNCTIONS and not node.keywords \
                and not any(isinstance(a, ast.Starred) for a in node.args):
            operands = node.args
        else:
            text = ast.get_source_segment(expr, node) or type(node).__name__
            raise ValueError(f"expression: {text[:60]!r} is not an allowed construct")
        order.append((node, operands))
        stack += operands
    literal: dict = {}  # node -> float value of a literal-only subtree
    for node, operands in reversed(order):  # operands before their node
        if all(o in literal for o in operands):
            literal[node] = _literal_value(node, [literal[o] for o in operands], expr)
    try:
        return compile(tree, "<expression>", "eval")
    except RecursionError as exc:
        raise ValueError("expression: nested too deeply") from exc


def _build_payoffs(cfg: dict, lat: Lattice, config_dir: Path) -> dict:
    """Named payoffs of the config; a relative ``csv`` path is taken from the
    config file's directory."""
    out: dict = {}
    ns = None
    for name, obj in (_get(cfg, "payoffs", "an object", default=None) or {}).items():
        kind = obj.get("kind") if isinstance(obj, dict) else None
        try:
            if kind == "csv":
                path = Path(_get(obj, "path", "a string", f"payoff {name!r}"))
                if not path.is_absolute():
                    path = config_dir / path
                out[name] = load_payoff_csv(path, lat)
            elif kind == "expression":
                if ns is None:
                    ns = _expression_namespace(lat)
                code = _compile_expression(
                    _get(obj, "expr", "a string", f"payoff {name!r}"), ns)
                # ``where`` evaluates both branches; ``RandomVariable`` refuses non-finite values
                with np.errstate(all="ignore"):
                    values = eval(code, {"__builtins__": {}}, dict(ns))
                if np.iscomplexobj(values):
                    raise ValueError("expression: the payoff is complex")
                values = np.broadcast_to(
                    np.asarray(values, dtype=float), (lat.num_nodes(lat.n_steps),)
                ).copy()
                out[name] = RandomVariable(values, lat.n_steps)
            elif kind == "analytic":
                blocks = []
                for key, width in (("h", lat.noise.d), ("htilde", lat.noise.jumps.m)):
                    v = _get(obj, key, "an array of numbers or number arrays",
                             f"payoff {name!r}", None)
                    blocks.append(np.asarray(v, dtype=float).reshape(lat.n_steps, -1)
                                  if v else np.zeros((lat.n_steps, width)))
                out[name] = AnalyticPayoff(lat.grid, *blocks)
            else:
                raise ConfigError(
                    f"payoff {name!r}: kind must be csv, expression or analytic"
                )
        except ConfigError:
            raise
        except (ArithmeticError, OSError, SyntaxError, TypeError, ValueError,
                NameError) as exc:
            raise ConfigError(f"payoff {name!r}: {exc}") from exc
    return out


def _inputs(cfg: dict, lat: Lattice, config_dir: Path) -> tuple[SolverConfig, dict, dict]:
    """The solver, the named drivers and the named payoffs, in that order."""
    return (*_parse_drivers(cfg), _build_payoffs(cfg, lat, config_dir))


def _named(pool: dict, name: str, what: str):
    if name not in pool:
        raise ConfigError(f"{what} {name!r} is not defined in the config")
    return pool[name]


def _ref(block: dict, key: str, where: str, pool: dict, what: str):
    """The ``what`` of ``pool`` that the string ``block[key]`` names."""
    return _named(pool, _get(block, key, "a string", where), what)


def _payoff(payoffs: dict, name: str, where: str, analytic: bool = False):
    """The payoff ``name``, which must be analytic or, by default, a lattice payoff."""
    payoff = _named(payoffs, name, "payoff")
    if analytic != isinstance(payoff, AnalyticPayoff):
        kind = "an analytic" if analytic else "a lattice"
        raise ConfigError(f"{where}: payoff must be {kind} payoff")
    return payoff


# -- commands -----------------------------------------------------------------
#
# A command takes (cfg, lat, seed, config_dir) and returns its exit code and
# its artifacts in order: (file name, JSON-ready payload or rendered CSV text).


def cmd_build(cfg, lat, seed, config_dir):
    return EXIT_OK, [("lattice.json", lattice_to_dict(lat))]


def cmd_deviation(cfg, lat, seed, config_dir):
    block = _get(cfg, "deviation", "an object")
    _, drivers, payoffs = _inputs(cfg, lat, config_dir)
    driver = _ref(block, "driver", "deviation", drivers, "driver")
    payoff = _payoff(payoffs, _get(block, "payoff", "a string", "deviation"), "deviation")
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
    partition = _get(block, "partition", "an array of integers", "deviation", None)
    if partition is not None:
        summary["partition"], summary["recursion_max_gap"] = recursion_gap(
            lat, driver, pair, dev, partition)
    return EXIT_OK, [
        ("deviation.csv", process_csv(dev.values)),
        ("integrands.json", pair_to_dict(pair)),
        ("deviation_summary.json", summary),
    ]


def cmd_axioms(cfg, lat, seed, config_dir):
    block = _get(cfg, "axioms", "an object")
    _, drivers, payoffs = _inputs(cfg, lat, config_dir)
    driver = _ref(block, "driver", "axioms", drivers, "driver")
    names = _get(block, "payoffs", "an array of strings", "axioms")
    samples = [_payoff(payoffs, n, "axioms") for n in names]
    mixtures = _get(block, "mixtures", "an integer", "axioms", 50)
    level = _get(block, "level", "an integer", "axioms", None)
    with _refused("axioms"):
        report = axiom_report(lat, driver, samples, seed=seed, mixtures=mixtures, level=level)
    payload = {"command": "axioms", "seed": seed, "driver": block["driver"],
               "payoffs": list(names), "report": dataclasses.asdict(report),
               "all_passed": report.all_passed()}
    return EXIT_OK, [("axioms.json", payload)]


def cmd_law_probe(cfg, lat, seed, config_dir):
    block = _get(cfg, "law_probe", "an object")
    _, drivers, payoffs = _inputs(cfg, lat, config_dir)
    driver = _ref(block, "driver", "law_probe", drivers, "driver")

    def pairs(key, analytic):
        return [tuple(_payoff(payoffs, name, "law_probe", analytic) for name in pair)
                for pair in _get(block, key, "an array of name pairs", "law_probe", [])]

    report = law_probe(lat, driver, pairs("pairs", False), pairs("analytic_pairs", True),
                       law_tol=float(_get(block, "law_tol", "a number", "law_probe", 1e-8)))
    payload = {"command": "law_probe", "seed": seed, "driver": block["driver"],
               "report": dataclasses.asdict(report)}
    return EXIT_OK, [("law_probe.json", payload)]


def cmd_share(cfg, lat, seed, config_dir):
    block = _get(cfg, "share", "an object")
    solver, drivers, payoffs = _inputs(cfg, lat, config_dir)
    prob = SharingProblem(
        x_a=_payoff(payoffs, _get(block, "payoff_a", "a string", "share"), "share"),
        x_b=_payoff(payoffs, _get(block, "payoff_b", "a string", "share"), "share"),
        driver_a=_ref(block, "driver_a", "share", drivers, "driver"),
        driver_b=_ref(block, "driver_b", "share", drivers, "driver"),
        solver=solver,
    )
    sol = solve_sharing(lat, prob)
    summary = {
        "command": "share",
        "seed": seed,
        "share_factor": sol.share_factor,
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
    argmins = [np.concatenate([h, ht], axis=1) for h, ht in zip(sol.argmin_H, sol.argmin_Ht)]
    columns = [f"z{i + 1}" for i in range(d)] + [f"ztilde{j + 1}" for j in range(m)]
    if not sol.attained:
        print("inf-convolution unbounded below" if sol.unbounded
              else "sharing solve did not attain the optimum at every node", file=sys.stderr)
    return EXIT_OK if sol.attained else EXIT_NUMERIC, [
        ("share_argmins.csv", process_csv(argmins, columns=columns)),
        ("transfer.csv", payoff_csv(sol.y_tilde_star)),
        ("share_summary.json", summary),
    ]


def cmd_check_driver(cfg, lat, seed, config_dir):
    block = _get(cfg, "check_driver", "an object")
    _, drivers = _parse_drivers(cfg)
    driver = _ref(block, "driver", "check_driver", drivers, "driver")
    samples = _get(block, "samples", "an integer", "check_driver", 200)
    d = _get(block, "d", "an integer", "check_driver", max(lat.noise.d, 1))
    with _refused("check_driver"):
        cells = probe_count(lat.noise.jumps, d, samples)
    if cells > lat.max_nodes:
        raise ConfigError(f"check_driver: 'd' = {d} and 'samples' = {samples} give "
                          f"{cells} probe cells, over the max_nodes budget {lat.max_nodes}")
    report = check_driver(driver, lat.noise.jumps, sample_count=samples, seed=seed, d=d)
    payload = {"command": "check_driver", "seed": seed,
               "driver": block["driver"], "report": dataclasses.asdict(report),
               "all_passed": report.all_passed()}
    return EXIT_OK, [("driver_check.json", payload)]


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
    parser.add_argument("command", choices=list(_DISPATCH))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or '.')")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true")
    return parser


@contextlib.contextmanager
def _writing():
    """Turn an ``OSError`` of the output into the exit-1 error naming its path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        seed = args.seed if args.seed is not None \
            else _get(cfg, "seed", "an integer", default=0)
        out_dir = Path(args.out or _get(cfg, "out", "a string", default="."))
        with _writing():
            out_dir.mkdir(parents=True, exist_ok=True)
        lat = _build_lattice(cfg)
        code, artifacts = _DISPATCH[args.command](cfg, lat, seed, Path(args.config).parent)
        # render every artifact first: a run that fails writes no file
        texts = [(out_dir / name, item if isinstance(item, str) else canonical_json(item))
                 for name, item in artifacts]
        with _writing():
            write_artifacts(texts)
        if not args.quiet:
            for path, _ in texts:
                print(f"wrote {path}")
        return code
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
