"""Representation of payoffs as flows against the lattice noise basis.

Every payoff decomposes into its mean plus stochastic sums of predictable
integrands against the Brownian increments and the compensated jump
indicators. On a lattice step with ``2^d * (m+1)`` children but only ``d + m``
basis directions the decomposition is generally inexact; ``represent`` takes
the conditional least-squares projection per node, one product with the
lattice's step projector per level, and reports the orthogonal remainder as a
residual instead of hiding it. A binomial step (d=1, m=0) is complete, so
there the residual vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, RandomVariable, TimeGrid, _check_finite, martingale

__all__ = [
    "RepresentingPair",
    "AnalyticPayoff",
    "represent",
    "assemble",
]


@dataclass(frozen=True)
class RepresentingPair:
    """Per-node integrands of a payoff plus its mean and projection residuals.

    ``H[i]`` has shape (nodes_at_level_i, d), ``Htilde[i]`` shape (nodes, m)
    and ``residuals[i]`` the conditional L2 norm of the unexplained part of the
    one-step martingale increment at each node.
    """

    mean: float
    H: tuple[np.ndarray, ...]
    Htilde: tuple[np.ndarray, ...]
    residuals: tuple[np.ndarray, ...]

    @property
    def n_steps(self) -> int:
        return len(self.H)

    def max_residual(self) -> float:
        return float(max(r.max() if r.size else 0.0 for r in self.residuals))


def represent(lat: Lattice, x: RandomVariable) -> RepresentingPair:
    """Project a payoff's one-step martingale increments on the noise basis.

    At each node, projects the increment ``E[x|child] - E[x|node]`` on the
    step basis with the lattice's closed-form least-squares projector
    (``Lattice.step_basis``); the projector is shared within a level, so the
    projection is one matrix product over the level's nodes. The remainders
    and residuals are formed here only; the probe passes use ``_project``.
    """
    mart = martingale(lat, x).values
    d, H, Ht, res = lat.noise.d, [], [], []
    for i in range(lat.n_steps):
        dm, beta = _step_projection(lat, mart, i)
        remainder = dm - beta @ lat.step_basis(i)[0].T
        H.append(beta[:, :d])
        Ht.append(beta[:, d:])
        # a probability-weighted sum of squares: +0.0 or more, or NaN
        res.append(np.sqrt((remainder * remainder) @ lat.step_probs(i)))
    return RepresentingPair(float(mart[0][0]), tuple(H), tuple(Ht), tuple(res))


def _step_projection(lat: Lattice, mart, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Step ``i``'s increments ``dm`` of the means ``mart`` and ``beta = dm @ P``."""
    dm = lat.children(mart[i + 1]) - mart[i][:, None]
    return dm, dm @ lat.step_basis(i)[1]


def _project(lat: Lattice, mart, lo: int = 0, hi: int | None = None) -> tuple[tuple, tuple]:
    """``represent``'s integrands, without the residuals, of the per-level
    conditional means ``mart`` on the steps of levels ``[lo, hi)`` (all by
    default), read on levels ``lo..hi`` only. Rows never mix, so ``mart`` may
    hold several payoffs side by side (``lattice._martingale_levels``)."""
    d = lat.noise.d
    betas = [_step_projection(lat, mart, i)[1]
             for i in range(lo, lat.n_steps if hi is None else hi)]
    return tuple(b[:, :d] for b in betas), tuple(b[:, d:] for b in betas)


def _check_pair(lat: Lattice, pair: RepresentingPair) -> None:
    d, m = lat.noise.d, lat.noise.jumps.m
    if pair.n_steps != lat.n_steps:
        raise ValueError("pair does not cover the lattice steps")
    for i in range(lat.n_steps):
        nodes = lat.num_nodes(i)
        if pair.H[i].shape != (nodes, d) or pair.Htilde[i].shape != (nodes, m):
            raise ValueError(f"integrand shape mismatch at level {i}")


def assemble(lat: Lattice, pair: RepresentingPair) -> RandomVariable:
    """Forward stochastic sum: mean plus per-step integrand contributions.

    Inverse of ``represent`` on its zero-residual range:
    ``represent(assemble(p))`` returns ``p`` with zero residuals.
    """
    _check_pair(lat, pair)
    v = np.array([pair.mean])
    for i in range(lat.n_steps):
        phi = lat.step_basis(i)[0]
        steps = np.concatenate([pair.H[i], pair.Htilde[i]], axis=1)
        v = lat.extend(v, steps @ phi.T)
    return RandomVariable(v, lat.n_steps)


@dataclass(frozen=True)
class AnalyticPayoff:
    """Deterministic per-step integrands: h (n, d) and htilde (n, m)."""

    grid: TimeGrid
    h: np.ndarray
    htilde: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        ht = np.asarray(self.htilde, dtype=float)
        if ht.size == 0:
            ht = ht.reshape(self.grid.n_steps, -1)
        ht = np.atleast_2d(ht)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "htilde", ht)
        if h.shape[0] != self.grid.n_steps or ht.shape[0] != self.grid.n_steps:
            raise ValueError("integrands must have one row per grid step")
        _check_finite("integrands", np.concatenate([h.ravel(), ht.ravel()]))


def _check_analytic(lat: Lattice, ap: AnalyticPayoff) -> None:
    if ap.grid.times != lat.grid.times:
        raise ValueError("analytic payoff grid does not match the lattice grid")
    if ap.h.shape[1] != lat.noise.d or ap.htilde.shape[1] != lat.noise.jumps.m:
        raise ValueError("analytic payoff dimensions do not match the lattice")
