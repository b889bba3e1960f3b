"""Small-scale convex minimisation for the pointwise inf-convolution solves.

The primary method is a subgradient descent with diminishing steps a/(1+k)
and best-iterate tracking, followed by a monotone backtracking polish that
sharpens smooth instances to near machine accuracy. Objectives here are convex
in at most a handful of coordinates, so robustness beats speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SolverConfig",
    "NumericError",
    "ObjectiveOracle",
    "MinimizeResult",
    "minimize",
    "brute_force_min",
]

#: refuse exhaustive grids beyond this many evaluations
BRUTE_FORCE_BUDGET = 20_000_000


class NumericError(ValueError):
    """A numeric quantity failed a configured threshold (exit code 2 in the CLI)."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and budgets shared by minimize and the sharing solver."""

    tolerance: float = 1e-9
    max_iterations: int = 1500
    stall_window: int = 150
    polish_iterations: int = 120
    attain_tolerance: float = 1e-5
    residual_tolerance: float = math.inf

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ObjectiveOracle:
    """Evaluation and subgradient callables of a convex objective on R^p."""

    evaluate: Callable[[np.ndarray], float]
    subgradient: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MinimizeResult:
    argmin: np.ndarray
    value: float
    iterations: int
    converged: bool
    gap_estimate: float


def _better(f: float, x: np.ndarray, f_best: float, x_best: np.ndarray) -> bool:
    # ties between equal values resolve to the smaller-norm iterate
    if f < f_best:
        return True
    return f == f_best and float(x @ x) < float(x_best @ x_best)


def minimize(obj: ObjectiveOracle, init: np.ndarray, cfg: SolverConfig) -> MinimizeResult:
    """Minimise a convex objective from ``init``.

    Phase one runs subgradient steps ``x -= (a / (1 + k)) * g`` with ``a``
    calibrated from the initial subgradient norm ``gnorm0`` (a subgradient
    longer than ``gnorm0`` is scaled down to it), keeping the best iterate,
    and stops early when the best value stalls below ``cfg.tolerance`` over a
    window or a near-zero subgradient appears. Phase two polishes the best
    iterate with backtracking (Armijo) descent steps, which only ever accepts
    improvements, so kinked objectives are safe.
    """
    x = np.asarray(init, dtype=float).copy()
    f = float(obj.evaluate(x))
    x_best, f_best = x.copy(), f
    g = np.asarray(obj.subgradient(x), dtype=float)
    gnorm0 = float(np.linalg.norm(g))
    scale = max(1.0, abs(f_best))
    converged = False
    iterations = 0

    if gnorm0 <= 1e-14 * scale:
        converged = True
    else:
        a = (1.0 + float(np.linalg.norm(x))) / gnorm0
        gnorm = gnorm0
        window_anchor = f_best
        for k in range(cfg.max_iterations):
            iterations = k + 1
            # no step is longer than the first one's scale allows: a steep
            # subgradient met on the way is cut back to the norm gnorm0
            x = x - (a / (1.0 + k)) * min(1.0, gnorm0 / gnorm) * g
            f = float(obj.evaluate(x))
            if _better(f, x, f_best, x_best):
                f_best, x_best = f, x.copy()
            g = np.asarray(obj.subgradient(x), dtype=float)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= 1e-14 * scale:
                f_best, x_best = f, x.copy()
                converged = True
                break
            if (k + 1) % cfg.stall_window == 0:
                if window_anchor - f_best <= cfg.tolerance * max(1.0, abs(f_best)):
                    converged = True
                    break
                window_anchor = f_best

    # monotone polish from the best iterate: backtracking along the
    # subgradient each round, with per-coordinate line searches whenever the
    # joint direction makes weak progress (at kink-adjacent points it fails to
    # descend even though single coordinates still can)
    x = x_best.copy()
    f = f_best
    improvement = math.inf
    coord_step = np.full(x.shape[0], 1.0 + float(np.linalg.norm(x)))
    step_floor = 1e-15 * (1.0 + float(np.linalg.norm(x)))
    joint_step = 0.0
    for rounds in range(cfg.polish_iterations):
        g = np.asarray(obj.subgradient(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-14 * max(1.0, abs(f)):
            converged = True
            break
        f_before = f
        # joint direction, warm-started, best step along the halving sequence;
        # when it keeps failing (kink oscillation) it is parked and only
        # retried periodically
        if joint_step > step_floor or rounds % 10 == 0:
            step = 2.0 * joint_step if joint_step > step_floor else 1.0 / gn
            best_f, best_x, best_step = f, None, None
            stale = 0
            while step > step_floor and stale < 3:
                trial = x - step * g
                ft = float(obj.evaluate(trial))
                if ft < best_f:
                    best_f, best_x, best_step = ft, trial, step
                    stale = 0
                elif best_x is not None:
                    stale += 1
                step *= 0.5
            if best_x is not None:
                x, f = best_x, best_f
                joint_step = best_step
            else:
                joint_step = 0.0
        if f_before - f <= cfg.tolerance * max(1.0, abs(f)):
            # near-exact coordinate line searches: halve from the warm step and
            # keep the best trial, stopping shortly after improvement peaks
            for i in range(x.shape[0]):
                step = 2.0 * coord_step[i]
                best_f, best_x, best_step = f, None, None
                stale = 0
                while step > step_floor and stale < 3:
                    gained = False
                    for sign in (1.0, -1.0):
                        trial = x.copy()
                        trial[i] += sign * step
                        ft = float(obj.evaluate(trial))
                        if ft < best_f:
                            best_f, best_x, best_step = ft, trial, step
                            gained = True
                    if best_x is not None and not gained:
                        stale += 1
                    step *= 0.5
                if best_x is not None:
                    x, f = best_x, best_f
                    coord_step[i] = best_step
                else:
                    coord_step[i] = step_floor
        improvement = f_before - f
        if improvement <= 1e-13 * max(1.0, abs(f)):
            converged = True
            break
    if improvement <= cfg.tolerance * max(1.0, abs(f)):
        converged = True
    if _better(f, x, f_best, x_best):
        f_best, x_best = f, x.copy()

    g_final = np.asarray(obj.subgradient(x_best), dtype=float)
    gap = float(np.linalg.norm(g_final)) * (1.0 + float(np.linalg.norm(x_best)))
    return MinimizeResult(x_best, f_best, iterations, converged, gap)


def brute_force_min(
    evaluate: Callable[[np.ndarray], float],
    box: list[tuple[float, float]],
    step: float,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid minimisation over a box; test oracle, dimensions <= 3."""
    if step <= 0:
        raise ValueError("step must be positive")
    if not 1 <= len(box) <= 3:
        raise ValueError("brute force supports 1 to 3 dimensions")
    axes = []
    total = 1
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            raise ValueError("box intervals must be finite with lo < hi")
        ax = np.arange(lo, hi + step / 2, step)
        axes.append(ax)
        total *= len(ax)
    if total > BRUTE_FORCE_BUDGET:
        raise ValueError(f"grid of {total} points exceeds the brute-force budget")
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    best_x, best_f = None, math.inf
    for pt in points:
        f = float(evaluate(pt))
        if f < best_f or (f == best_f and best_x is not None
                          and float(pt @ pt) < float(best_x @ best_x)):
            best_f, best_x = f, pt
    return np.asarray(best_x), best_f
