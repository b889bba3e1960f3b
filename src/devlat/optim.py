"""Small-scale convex minimisation for the pointwise inf-convolution solves.

The primary method is a subgradient descent with diminishing steps a/(1+k)
and best-iterate tracking, followed by a monotone backtracking polish that
sharpens smooth instances to near machine accuracy. Objectives here are convex
in at most a handful of coordinates, so robustness beats speed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import finite_number

__all__ = [
    "SolverConfig",
    "NumericError",
    "MinimizeResult",
    "minimize",
]


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
        # bools are ints to Python but not counts; NaN fails every bound
        for name, low in (("max_iterations", 1), ("stall_window", 1),
                          ("polish_iterations", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or value < low:
                raise ValueError(f"{name!r} must be an integer >= {low}")
        # each tolerance by the one rule for a number read from JSON; the
        # residual threshold may also be +inf, its default
        for name, strict, kind in (("tolerance", True, "a finite number > 0"),
                                   ("attain_tolerance", False, "a finite number >= 0"),
                                   ("residual_tolerance", False, "a number >= 0 or Infinity")):
            value = getattr(self, name)
            number = finite_number(value) or (name == "residual_tolerance" and value == math.inf)
            if not number or not (value > 0 if strict else value >= 0):
                raise ValueError(f"{name!r} must be {kind}")


@dataclass(frozen=True)
class MinimizeResult:
    argmin: np.ndarray
    value: float
    iterations: int
    converged: bool


def _better(f: float, x: np.ndarray, f_best: float, x_best: np.ndarray) -> bool:
    # ties between equal values resolve to the smaller-norm iterate
    if f < f_best:
        return True
    return f == f_best and float(x @ x) < float(x_best @ x_best)


def minimize(evaluate: Callable[[np.ndarray], float],
             subgradient: Callable[[np.ndarray], np.ndarray],
             init: np.ndarray, cfg: SolverConfig) -> MinimizeResult:
    """Minimise a convex objective on R^p, given its ``evaluate`` and
    ``subgradient`` callables, from ``init``.

    Phase one runs subgradient steps ``x -= (a / (1 + k)) * g`` with ``a``
    calibrated from the initial subgradient norm ``gnorm0`` (a subgradient
    longer than ``gnorm0`` is scaled down to it), keeping the best iterate,
    and stops early when the best value stalls below ``cfg.tolerance`` over a
    window or a near-zero subgradient appears. Phase two polishes the best
    iterate with backtracking (Armijo) descent steps, which only ever accepts
    improvements, so kinked objectives are safe.
    """
    x = np.asarray(init, dtype=float).copy()
    f = float(evaluate(x))
    x_best, f_best = x.copy(), f
    g = np.asarray(subgradient(x), dtype=float)
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
            f = float(evaluate(x))
            if _better(f, x, f_best, x_best):
                f_best, x_best = f, x.copy()
            g = np.asarray(subgradient(x), dtype=float)
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
    for _ in range(cfg.polish_iterations):
        g = np.asarray(subgradient(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= 1e-14 * max(1.0, abs(f)):
            converged = True
            break
        f_before = f
        # joint direction, warm-started, best step along the halving sequence
        step = 2.0 * joint_step if joint_step > step_floor else 1.0 / gn
        best_f, best_x, best_step = f, None, None
        stale = 0
        while step > step_floor and stale < 3:
            trial = x - step * g
            ft = float(evaluate(trial))
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
                        ft = float(evaluate(trial))
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
    return MinimizeResult(x_best, f_best, iterations, converged)
