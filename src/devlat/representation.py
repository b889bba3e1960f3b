"""Representation of payoffs as flows against the lattice noise basis.

Every payoff decomposes into its mean plus stochastic sums of predictable
integrands against the Brownian increments and the compensated jump
indicators. On a lattice step with ``2^d * (m+1)`` children but only ``d + m``
basis directions the decomposition is generally inexact; ``represent`` solves
the conditional least-squares projection per node and reports the orthogonal
remainder as a residual instead of hiding it. A binomial step (d=1, m=0) is
complete, so there the residual vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, RandomVariable, TimeGrid, martingale

__all__ = [
    "RepresentingPair",
    "AnalyticPayoff",
    "RepresentationError",
    "noise_basis",
    "represent",
    "assemble",
    "lift_analytic",
]


class RepresentationError(RuntimeError):
    """Normal equations could not be solved (degenerate step probabilities)."""


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

    def with_mean(self, mean: float) -> "RepresentingPair":
        return RepresentingPair(float(mean), self.H, self.Htilde, self.residuals)


def noise_basis(lat: Lattice, level: int) -> np.ndarray:
    """Per-outcome basis matrix [dW^1..dW^d | Ntilde_1..Ntilde_m], shape (b, d+m).

    Ntilde_j(o) = 1{jump label of o == j} - intensity_j * dt; every column has
    zero mean under the step's outcome probabilities.
    """
    m = lat.noise.jumps.m
    onehot = np.eye(m + 1)[lat.outcome_labels][:, 1:]
    ntilde = onehot - lat.noise.jumps.intensity_array * lat.step_dt(level)
    return np.hstack([lat.step_dw(level), ntilde])


def represent(lat: Lattice, x: RandomVariable) -> RepresentingPair:
    """Project a payoff's one-step martingale increments on the noise basis.

    At each node, solves the weighted normal equations for the increment
    ``E[x|child] - E[x|node]`` against the step basis; the basis Gram matrix is
    shared within a level, so the solve vectorises over nodes.
    """
    mart = martingale(lat, x)
    d = lat.noise.d
    H, Ht, res = [], [], []
    for i in range(lat.n_steps):
        phi = noise_basis(lat, i)
        p = lat.step_probs(i)
        wphi = phi * p[:, None]
        gram = phi.T @ wphi
        dm = mart.at(i + 1).reshape(-1, lat.branching) - mart.at(i)[:, None]
        try:
            beta = np.linalg.solve(gram, (dm @ wphi).T).T
        except np.linalg.LinAlgError as exc:
            raise RepresentationError(
                f"singular normal equations at level {i}"
            ) from exc
        remainder = dm - beta @ phi.T
        H.append(beta[:, :d])
        Ht.append(beta[:, d:])
        res.append(np.sqrt(np.clip((remainder * remainder) @ p, 0.0, None)))
    return RepresentingPair(float(mart.at(0)[0]), tuple(H), tuple(Ht), tuple(res))


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
        phi = noise_basis(lat, i)
        steps = np.hstack([pair.H[i], pair.Htilde[i]])
        v = (v[:, None] + steps @ phi.T).ravel()
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
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(ht))):
            raise ValueError("integrands must be finite")


def lift_analytic(ap: AnalyticPayoff, lat: Lattice) -> RepresentingPair:
    """Broadcast deterministic step integrands to every node; mean zero."""
    if ap.grid.times != lat.grid.times:
        raise ValueError("analytic payoff grid does not match the lattice grid")
    d, m = lat.noise.d, lat.noise.jumps.m
    if ap.h.shape[1] != d or ap.htilde.shape[1] != m:
        raise ValueError("analytic payoff dimensions do not match the lattice")
    H, Ht, res = [], [], []
    for i in range(lat.n_steps):
        nodes = lat.num_nodes(i)
        H.append(np.tile(ap.h[i], (nodes, 1)))
        Ht.append(np.tile(ap.htilde[i], (nodes, 1)))
        res.append(np.zeros(nodes))
    return RepresentingPair(0.0, tuple(H), tuple(Ht), tuple(res))
