"""Workload definitions: seeded job inputs and independent correctness oracles.

Every workload runs on one fixed lattice shape. A job is one CLI call (or, on
``jump-probes``, one library call) whose payoff coefficients and driver
parameters come from a fixed pool of entries per job kind; the run seed sets
the order in which the pool entries run. A fixed pool is what lets
``reference_digests.json`` hold the artifact digest of every job a run can
make.

The oracles recompute each job's headline numbers with numpy from the leaf
values the benchmark generated itself. They never call into ``devlat``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: relative tolerance of closed-form oracles (pure accumulation round-off)
EXACT_TOL = 1e-9

#: relative tolerance of the numeric inf-convolution against its closed form;
#: the subgradient solver stops once its best value stalls below 1e-9
NUMERIC_TOL = 1e-7

#: solver block of every share-numeric config. The default polish budget (120
#: rounds) leaves a certificate gap of 0.01-0.04 on three pool entries, where
#: the jump block of the optimal split sits at NormCD's kink while the Brownian
#: block is interior; the CLI then exits 2. With 1000 rounds every entry
#: attains its optimum (gap 0), at about the same pass time.
NUMERIC_SOLVER = {"polish_iterations": 1000}


@dataclass(frozen=True)
class LatticeSpec:
    n: int
    marks: tuple[float, ...] = ()
    intensities: tuple[float, ...] = ()
    horizon: float = 1.0

    def config(self) -> dict:
        noise: dict = {"d": 1}
        if self.marks:
            noise["jumps"] = {"marks": list(self.marks),
                              "intensities": list(self.intensities)}
        return {"grid": {"n": self.n, "horizon": self.horizon}, "noise": noise}


#: jobs in one pass over a workload's pool; p90 then has 10 samples beyond it
MIN_PASS = 100


@dataclass(frozen=True)
class Workload:
    lattice: LatticeSpec
    kinds: tuple[str, ...]
    #: pool entries per job kind
    pool: int
    #: jobs in the traced part of a --trace 1 run; a whole number of rotations
    trace_jobs: int

    def __post_init__(self):
        if self.pass_jobs < MIN_PASS:
            raise ValueError(f"a pass of {self.pass_jobs} jobs is under {MIN_PASS}")

    @property
    def pass_jobs(self) -> int:
        """Jobs that run every pool entry once."""
        return len(self.kinds) * self.pool


BINOMIAL_12 = LatticeSpec(12)
BINOMIAL_10 = LatticeSpec(10)
JUMP_2 = LatticeSpec(2, (-1.0, 2.0), (0.25, 0.5))
JUMP_4 = LatticeSpec(4, (-1.0, 2.0), (0.25, 0.5))

WORKLOADS = {
    "dev-wide": Workload(BINOMIAL_12, ("variance", "norm_cd"), 50, 20),
    "share-numeric": Workload(JUMP_2, ("norm_var", "norm_norm", "scaled_norm_var"), 34, 12),
    "share-closed": Workload(BINOMIAL_10, ("quadratic", "common_base"), 50, 20),
    "jump-probes": Workload(JUMP_4, ("cvar_deviation", "axioms", "law_probe",
                                     "check_driver", "permute_law"), 20, 50),
}


@dataclass(frozen=True)
class Job:
    workload: str
    kind: str
    idx: int

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.kind}/{self.idx}"


def schedule(workload: str, seed: int, count: int) -> list[Job]:
    """Job order of a run: kinds rotate in fixed order; each kind walks its
    pool in a seeded order, reshuffled every pass.

    Walking whole passes, not drawing with replacement, keeps the mix of cheap
    and costly pool entries the same in every run that ends on a pass, so
    seeds change the order of the inputs without changing how much work a run
    holds.
    """
    wl = WORKLOADS[workload]
    kinds = wl.kinds
    rng = random.Random(f"{workload}:{seed}")
    orders: dict[str, list[int]] = {kind: [] for kind in kinds}
    jobs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        if not orders[kind]:
            orders[kind] = rng.sample(range(wl.pool), wl.pool)
        jobs.append(Job(workload, kind, orders[kind].pop()))
    return jobs


# -- independent lattice arithmetic -----------------------------------------------


class Tree:
    """Leaf paths, outcome probabilities and martingales of a d=1 lattice.

    Outcome ``o`` of a step is ``sign * (m + 1) + label``: sign 0 moves the
    Brownian state down by sqrt(dt), sign 1 up; label ``j >= 1`` is one jump of
    mark ``j``. Leaf ``k`` spells its outcomes as base-``b`` digits of ``k``,
    first step most significant.
    """

    def __init__(self, spec: LatticeSpec):
        self.n = spec.n
        self.m = len(spec.marks)
        self.b = 2 * (self.m + 1)
        self.dt = spec.horizon / spec.n
        nu = np.asarray(spec.intensities, dtype=float)
        self.nu = nu
        outcomes = np.arange(self.b)
        self.sign = 2.0 * (outcomes // (self.m + 1)) - 1.0
        self.label = outcomes % (self.m + 1)
        per_label = np.concatenate(([1.0 - nu.sum() * self.dt], nu * self.dt))
        self.p = 0.5 * per_label[self.label]
        leaves = np.arange(self.b ** self.n)
        digits = np.stack(
            [(leaves // self.b ** (self.n - 1 - i)) % self.b for i in range(self.n)],
            axis=1,
        )
        self.W = math.sqrt(self.dt) * self.sign[digits].sum(axis=1)
        self.N = [(self.label[digits] == j + 1).sum(axis=1).astype(float)
                  for j in range(self.m)]

    def martingale(self, x: np.ndarray) -> list[np.ndarray]:
        levels = [x]
        for _ in range(self.n):
            levels.insert(0, levels[0].reshape(-1, self.b) @ self.p)
        return levels

    def node_probs(self, level: int) -> np.ndarray:
        probs = np.ones(1)
        for _ in range(level):
            probs = np.outer(probs, self.p).ravel()
        return probs

    def integrands(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per level: |h|, ||htilde||_nu and htilde of the weighted
        least-squares projection of each node's one-step increment on the
        noise basis."""
        mart = self.martingale(x)
        basis = np.column_stack(
            [self.sign * math.sqrt(self.dt)]
            + [(self.label == j + 1) - self.nu[j] * self.dt for j in range(self.m)]
        )
        root_p = np.sqrt(self.p)
        out = []
        for i in range(self.n):
            dm = mart[i + 1].reshape(-1, self.b) - mart[i][:, None]
            beta = np.linalg.lstsq(basis * root_p[:, None], (dm * root_p).T,
                                   rcond=None)[0].T
            h = np.abs(beta[:, 0])
            jump = np.sqrt((beta[:, 1:] ** 2) @ self.nu) if self.m else np.zeros(len(h))
            out.append((h, jump, beta[:, 1:]))
        return out

    def accumulate(self, node_values: list[np.ndarray]) -> float:
        """Time-zero value of the backward sum of per-node values times dt."""
        return float(sum(self.node_probs(i) @ g * self.dt
                         for i, g in enumerate(node_values)))

    def variance(self, x: np.ndarray) -> float:
        probs = self.node_probs(self.n)
        mean = probs @ x
        return float(probs @ (x - mean) ** 2)


@functools.cache
def tree(spec: LatticeSpec) -> Tree:
    return Tree(spec)


# -- one-dimensional inf-convolutions of radial driver terms ------------------------
#
# Variance and NormCD are each a term in |h| plus a term in ||htilde||_nu, and
# Scaled(NormCD) equals NormCD by positive homogeneity, so every pair splits
# into two 1-D inf-convolutions of a*r^2 and c*r.


def _radial(driver: dict) -> tuple[tuple[str, float], tuple[str, float]]:
    """(Brownian term, jump term) of a driver as ("quad", a) or ("lin", c)."""
    kind = driver["kind"]
    if kind == "variance":
        return ("quad", driver["alpha"]), ("quad", driver["alpha"])
    if kind == "norm_cd":
        return ("lin", driver["c"]), ("lin", driver["d"])
    if kind == "scaled":
        (bk, bv), (jk, jv) = _radial(driver["base"])
        gamma = driver["gamma"]
        return ((bk, bv / gamma if bk == "quad" else bv),
                (jk, jv / gamma if jk == "quad" else jv))
    raise ValueError(f"no radial form for driver kind {kind!r}")


def _infconv_1d(a: tuple[str, float], b: tuple[str, float], r: np.ndarray) -> np.ndarray:
    if a[0] == b[0] == "quad":
        return a[1] * b[1] / (a[1] + b[1]) * r * r
    if a[0] == b[0] == "lin":
        return min(a[1], b[1]) * r
    quad, lin = (a[1], b[1]) if a[0] == "quad" else (b[1], a[1])
    knee = lin / (2.0 * quad)
    return np.where(r <= knee, quad * r * r, lin * r - lin * lin / (4.0 * quad))


def infconv_d0(t: Tree, driver_a: dict, driver_b: dict, total: np.ndarray) -> float:
    (ba, ja), (bb, jb) = _radial(driver_a), _radial(driver_b)
    return t.accumulate([_infconv_1d(ba, bb, h) + _infconv_1d(ja, jb, jump)
                         for h, jump, _ in t.integrands(total)])


def norm_d0(t: Tree, c: float, x: np.ndarray) -> float:
    """c * E[sum |H| dt] on a binomial tree, H = dM / (2 sqrt(dt))."""
    mart = t.martingale(x)
    scale = 2.0 * math.sqrt(t.dt)
    return t.accumulate([
        c * np.abs(np.diff(mart[i + 1].reshape(-1, 2), axis=1)[:, 0]) / scale
        for i in range(t.n)
    ])


def cvar_d0(t: Tree, a: float, x: np.ndarray) -> float:
    """Backward sum of CVaR_a of the jump-integrand losses under nu."""
    values = []
    for _, _, htilde in t.integrands(x):
        loss = -htilde
        order = np.argsort(-loss, axis=1, kind="stable")
        ordered = np.take_along_axis(loss, order, axis=1)
        upper = np.cumsum(t.nu[order], axis=1)
        width = np.clip(np.minimum(upper, a) - (upper - t.nu[order]), 0.0, None)
        values.append((ordered * width).sum(axis=1) / a)
    return t.accumulate(values)


# -- prepared jobs -------------------------------------------------------------------


@dataclass
class Prepared:
    """A job ready to run: CLI arguments or a library call, and its oracle.

    ``check`` takes the job's output directory (CLI jobs) or the library call's
    result and returns None when the output is correct, else the reason.
    """

    check: Callable
    argv: list[str] | None = None
    library: Callable | None = None
    artifacts: tuple[str, ...] = ()


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
    return path


def _write_csv(path: Path, values: np.ndarray) -> str:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["leaf", "value"])
        for leaf, v in enumerate(values):
            out.writerow([leaf, repr(float(v))])
    return str(path.resolve())


def _summary(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _cli(command: str, cfg_path: Path, out_dir: Path) -> list[str]:
    return [command, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]


def prepare(job: Job, work: Path, out_dir: Path) -> Prepared:
    """Write the job's config and CSV inputs under ``work``; the CLI writes
    its artifacts to ``out_dir``."""
    rng = random.Random(job.key)
    return _PREPARE[job.workload](job, rng, work, out_dir)


def _prepare_dev_wide(job, rng, work, out_dir):
    t = tree(BINOMIAL_12)
    a, b, c, k = _u(rng, -1, 1), _u(rng, -0.5, 0.5), _u(rng, 0.2, 1.5), _u(rng, -0.5, 0.5)
    expr = f"({a})*W + ({b})*W**2 + ({c})*maximum(W - ({k}), 0)"
    x = a * t.W + b * t.W ** 2 + c * np.maximum(t.W - k, 0)
    if job.kind == "variance":
        alpha = _u(rng, 0.5, 2.0)
        driver = {"kind": "variance", "alpha": alpha}
        ref = alpha * t.variance(x)
    else:
        cc, dd = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        driver = {"kind": "norm_cd", "c": cc, "d": dd}
        ref = norm_d0(t, cc, x)
    cuts = [0, rng.randint(2, 5), rng.randint(7, 10), t.n]
    cfg = {"seed": job.idx, "lattice": BINOMIAL_12.config(),
           "payoffs": {"X": {"kind": "expression", "expr": expr}},
           "drivers": {"g": driver},
           "deviation": {"payoff": "X", "driver": "g", "partition": cuts}}
    path = _write_config(work / f"{job.kind}-{job.idx}.json", cfg)
    rows = 1 + sum(2 ** i for i in range(t.n + 1))

    def check(out: Path):
        s = _summary(out, "deviation_summary.json")
        scale = EXACT_TOL * max(1.0, abs(ref))
        if not _close(s["D0"], ref, EXACT_TOL):
            return f"D0 {s['D0']!r} != oracle {ref!r}"
        if not s["recursion_max_gap"] <= scale:
            return f"recursion_max_gap {s['recursion_max_gap']!r}"
        if not s["supermartingale_slack"] >= -scale:
            return f"supermartingale_slack {s['supermartingale_slack']!r}"
        lines = (out / "deviation.csv").read_bytes().count(b"\n")
        if lines != rows:
            return f"deviation.csv has {lines} lines, expected {rows}"
        return None

    return Prepared(check, argv=_cli("deviation", path, out_dir),
                    artifacts=("deviation.csv", "integrands.json",
                               "deviation_summary.json"))


def _share_check(ref: float, tol: float):
    def check(out: Path):
        s = _summary(out, "share_summary.json")
        scale = max(1.0, abs(s["D0_a_standalone"]) + abs(s["D0_b_standalone"]))
        if s["attained"] is not True:
            return "optimum not attained"
        if abs(s["du_b"]) > EXACT_TOL * scale:
            return f"du_b {s['du_b']!r} is not 0"
        if s["du_a"] < -EXACT_TOL * scale:
            return f"du_a {s['du_a']!r} is negative"
        if s["infconv_D0"] > s["D0_a_standalone"] + s["D0_b_standalone"] + EXACT_TOL * scale:
            return "infconv_D0 exceeds the standalone sum"
        if not _close(s["infconv_D0"], ref, tol):
            return f"infconv_D0 {s['infconv_D0']!r} != oracle {ref!r}"
        return None
    return check


def _share_job(job, work, out_dir, spec, x_a, x_b, driver_a, driver_b, check,
               solver=None):
    cfg = {"seed": job.idx, "lattice": spec.config(),
           "payoffs": {
               "XA": {"kind": "csv", "path": _write_csv(work / f"{job.kind}-{job.idx}-a.csv", x_a)},
               "XB": {"kind": "csv", "path": _write_csv(work / f"{job.kind}-{job.idx}-b.csv", x_b)},
           },
           "drivers": {"ga": driver_a, "gb": driver_b},
           "share": {"payoff_a": "XA", "payoff_b": "XB",
                     "driver_a": "ga", "driver_b": "gb"}}
    if solver:
        cfg["solver"] = solver
    path = _write_config(work / f"{job.kind}-{job.idx}.json", cfg)
    return Prepared(check, argv=_cli("share", path, out_dir),
                    artifacts=("share_summary.json", "share_argmins.csv",
                               "transfer.csv"))


def _prepare_share_numeric(job, rng, work, out_dir):
    t = tree(JUMP_2)
    n1, n2 = t.N
    x_a = (_u(rng, -1, 1) * t.W + _u(rng, -1, 1) * n1 + _u(rng, -1, 1) * n2
           + _u(rng, -0.5, 0.5) * t.W ** 2)
    x_b = (_u(rng, -1, 1) * t.W + _u(rng, -1, 1) * n1 + _u(rng, -1, 1) * n2
           + _u(rng, -0.5, 0.5) * t.W * n2)
    norm = {"kind": "norm_cd", "c": _u(rng, 0.5, 1.5), "d": _u(rng, 0.5, 1.5)}
    if job.kind == "norm_var":
        driver_a, driver_b = norm, {"kind": "variance", "alpha": _u(rng, 0.5, 2.0)}
    elif job.kind == "norm_norm":
        c_b = round(norm["c"] * _u(rng, 1.2, 2.0), 4)
        driver_a, driver_b = norm, {"kind": "norm_cd", "c": c_b, "d": _u(rng, 0.5, 1.5)}
    else:
        driver_a = {"kind": "scaled", "gamma": _u(rng, 0.5, 3.0), "base": norm}
        driver_b = {"kind": "variance", "alpha": _u(rng, 0.5, 2.0)}
    ref = infconv_d0(t, driver_a, driver_b, x_a + x_b)
    return _share_job(job, work, out_dir, JUMP_2, x_a, x_b, driver_a, driver_b,
                      _share_check(ref, NUMERIC_TOL), NUMERIC_SOLVER)


def _prepare_share_closed(job, rng, work, out_dir):
    t = tree(BINOMIAL_10)
    w = t.W
    x_a = _u(rng, -1, 1) * w + _u(rng, -0.5, 0.5) * w ** 2 \
        + _u(rng, 0.2, 1.0) * np.maximum(w - _u(rng, -0.5, 0.5), 0)
    x_b = _u(rng, -1, 1) * w + _u(rng, -0.5, 0.5) * np.abs(w) + _u(rng, -0.3, 0.3) * w ** 3
    if job.kind == "quadratic":
        ga, gb = _u(rng, 0.5, 3.0), _u(rng, 0.5, 3.0)
        aa, ab = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
        driver_a = {"kind": "scaled", "gamma": ga, "base": {"kind": "variance", "alpha": aa}}
        driver_b = {"kind": "scaled", "gamma": gb, "base": {"kind": "variance", "alpha": ab}}
        qa, qb = aa / ga, ab / gb
        ref = qa * qb / (qa + qb) * t.variance(x_a + x_b)
    else:
        base = {"kind": "norm_cd", "c": _u(rng, 0.5, 2.0), "d": _u(rng, 0.5, 2.0)}
        driver_a = {"kind": "scaled", "gamma": _u(rng, 0.5, 3.0), "base": base}
        driver_b = base
        ref = norm_d0(t, base["c"], x_a + x_b)
    return _share_job(job, work, out_dir, BINOMIAL_10, x_a, x_b, driver_a, driver_b,
                      _share_check(ref, EXACT_TOL))


def _jump_payoff(rng: random.Random, w: str = "W") -> tuple[str, list[int]]:
    """Integer combination of W, N1, N2, W^2 and W*N1 in expression form.

    Dyadic steps and intensities with integer coefficients keep the backward
    averaging exact, which the axiom suite's translation check relies on.
    """
    coef = [0] * 5
    while coef[0] == 0 and coef[1] == 0 and coef[2] == 0:
        coef = [rng.randint(-3, 3) for _ in range(5)]
    terms = (f"{w}", "N1", "N2", f"{w}**2", f"{w}*N1")
    return " + ".join(f"({c})*{term}" for c, term in zip(coef, terms)), coef


def _jump_values(t: Tree, coef: list[int]) -> np.ndarray:
    n1, n2 = t.N
    return (coef[0] * t.W + coef[1] * n1 + coef[2] * n2 + coef[3] * t.W ** 2
            + coef[4] * t.W * n1)


def _prepare_jump_probes(job, rng, work, out_dir):
    t = tree(JUMP_4)
    expr, coef = _jump_payoff(rng)
    norm = {"kind": "norm_cd", "c": rng.randint(1, 8) / 4, "d": rng.randint(1, 8) / 4}
    cfg = {"seed": job.idx, "lattice": JUMP_4.config(), "drivers": {"g": norm}}
    kind = job.kind

    if kind == "permute_law":
        values = _jump_values(t, coef)

        def library(devlat, lat):
            x = devlat.RandomVariable(values, lat.n_steps)
            permuted = devlat.permute_paths(lat, x, np.random.default_rng(job.idx))
            first, second = devlat.law(lat, x), devlat.law(lat, permuted)
            return permuted, first, second, devlat.law_distance(first, second)

        def check(result):
            distance = result[3]
            return None if distance == 0.0 else f"law distance {distance!r} after permute_paths"

        return Prepared(check, library=library)

    if kind == "cvar_deviation":
        a = 0.5
        cfg["payoffs"] = {"X": {"kind": "expression", "expr": expr}}
        cfg["drivers"] = {"g": {"kind": "cvar_jump", "a": a}}
        cfg["deviation"] = {"payoff": "X", "driver": "g"}
        ref = cvar_d0(t, a, _jump_values(t, coef))
        command, artifacts = "deviation", ("deviation.csv", "integrands.json",
                                           "deviation_summary.json")

        def check(out):
            d0 = _summary(out, "deviation_summary.json")["D0"]
            return None if _close(d0, ref, EXACT_TOL) else f"D0 {d0!r} != oracle {ref!r}"
    elif kind == "axioms":
        other, _ = _jump_payoff(rng)
        cfg["payoffs"] = {"X": {"kind": "expression", "expr": expr},
                          "Z": {"kind": "expression", "expr": other}}
        cfg["axioms"] = {"driver": "g", "payoffs": ["X", "Z"], "mixtures": 50}
        command, artifacts = "axioms", ("axioms.json",)

        def check(out):
            return None if _summary(out, "axioms.json")["all_passed"] is True \
                else "axiom suite did not pass"
    elif kind == "law_probe":
        # a fresh generator on the same key redraws X's coefficients
        mirrored, _ = _jump_payoff(random.Random(job.key), w="(-W)")
        cfg["payoffs"] = {"X": {"kind": "expression", "expr": expr},
                          "Y": {"kind": "expression", "expr": mirrored}}
        cfg["law_probe"] = {"driver": "g", "pairs": [["X", "Y"]]}
        command, artifacts = "law-probe", ("law_probe.json",)

        def check(out):
            # mirrored paths are summed in another order, so NormCD's square
            # roots may differ in the last bits; equal laws allow no more
            entry = _summary(out, "law_probe.json")["report"]["entries"][0]
            scale = EXACT_TOL * max(1.0, abs(entry["d0_first"]))
            return None if entry["gap"] <= scale else f"law-probe gap {entry['gap']!r}"
    elif kind == "check_driver":
        cfg["check_driver"] = {"driver": "g", "samples": 200}
        command, artifacts = "check-driver", ("driver_check.json",)

        def check(out):
            return None if _summary(out, "driver_check.json")["all_passed"] is True \
                else "driver check did not pass"
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    path = _write_config(work / f"{kind}-{job.idx}.json", cfg)
    return Prepared(check, argv=_cli(command, path, out_dir), artifacts=artifacts)


_PREPARE = {
    "dev-wide": _prepare_dev_wide,
    "share-numeric": _prepare_share_numeric,
    "share-closed": _prepare_share_closed,
    "jump-probes": _prepare_jump_probes,
}


def digest(prep: Prepared, out_dir: Path, result) -> str:
    """SHA-256 over a job's artifacts (name, length, bytes) in a fixed order."""
    sha = hashlib.sha256()
    if prep.library is not None:
        permuted, first, second, distance = result
        chunks = [("permuted", permuted.values.tobytes()),
                  ("law", first.atoms.tobytes() + first.probs.tobytes()),
                  ("law_permuted", second.atoms.tobytes() + second.probs.tobytes()),
                  ("distance", repr(distance).encode())]
    else:
        chunks = [(name, (out_dir / name).read_bytes()) for name in prep.artifacts]
    for name, data in chunks:
        sha.update(f"{name}:{len(data)}:".encode())
        sha.update(data)
    return sha.hexdigest()
