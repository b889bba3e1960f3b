"""Two-agent optimal risk sharing via pointwise inf-convolution of drivers.

The total position's integrands are split between the agents' penalties one
lattice level at a time; the optimal split assembles into the transfer payoff,
and the price comes from the counterparty's binding participation constraint at
time zero. Transfers are unique only up to time-zero constants, so the
assembled transfer is normalised to zero mean and the price reported separately.

Inf-convolution is associative and commutative, and ``Scaled`` distributes
over it, so one split plan (``_split_plan``) reads any pair of driver trees as
one multiset of scaled atoms; the solver, ``InfConv`` and
``proportional_share_factor`` all read it. ``Variance`` and ``NormCD`` atoms
split in closed form for all rows at once; only ``CVaRJump`` and
``Custom`` atoms reach the numeric solver, in one joint solve per node.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .deviation import _accumulate, _levels
from .drivers import (CVaRJump, DriverSpec, InfConv, NormCD, Scaled, Variance, _as_vec,
                      _jump_vec, _row_times)
from .lattice import AdaptedProcess, JumpMeasure, Lattice, RandomVariable
from .optim import NumericError, SolverConfig, _better, minimize
from .representation import RepresentingPair, assemble, represent

__all__ = [
    "SharingProblem",
    "SharingSolution",
    "infconv_split",
    "infconv_value",
    "certificate_gaps",
    "solve_sharing",
    "proportional_share_factor",
]


@dataclass(frozen=True)
class SharingProblem:
    """Two terminal payoffs on one lattice and the agents' drivers."""

    x_a: RandomVariable
    x_b: RandomVariable
    driver_a: DriverSpec
    driver_b: DriverSpec
    solver: SolverConfig = SolverConfig()


@dataclass(frozen=True)
class SharingSolution:
    """Optimal split integrands, transfer, price and diagnostics.

    ``argmin_H``/``argmin_Ht`` hold the counterparty's optimal integrand share
    per node; ``y_star`` is the zero-mean assembled optimal position of agent B
    and ``y_tilde_star = y_star - x_b`` the priced transfer. ``certificate_gap``
    is the largest directional-derivative violation of split optimality over
    all nodes; an ``unbounded`` pair is never ``attained``. ``share_factor``
    is ``proportional_share_factor`` of the drivers, read from the solve's own
    split plan. ``d0_a``/``d0_b`` are each agent's time-zero deviation of its
    own payoff before the transfer.
    """

    argmin_H: tuple[np.ndarray, ...]
    argmin_Ht: tuple[np.ndarray, ...]
    y_star: RandomVariable
    y_tilde_star: RandomVariable
    price: float
    infconv_d: AdaptedProcess
    attained: bool
    unbounded: bool
    share_factor: float | None
    certificate_gap: float
    du_a: float
    du_b: float
    d0_a: float
    d0_b: float
    max_residual: float
    total_pair: RepresentingPair


# -- one normal form: a pair as owner-tagged scaled atoms ---------------------------

#: B's share fraction of one block: a number, or a function of the rows' radii
Rule = float | Callable[[np.ndarray], np.ndarray]


def _atoms(spec: DriverSpec, gamma: float = 1.0) -> list[tuple[float, DriverSpec]]:
    """``(gamma, base)`` of every leaf of a driver tree: ``Scaled`` multiplies
    gamma, outer factor first, and ``InfConv`` concatenates."""
    if isinstance(spec, Scaled):
        return _atoms(spec.base, gamma * spec.gamma)
    if isinstance(spec, InfConv):
        return _atoms(spec.a, gamma) + _atoms(spec.b, gamma)
    return [(gamma, spec)]


def _block_rule(groups: list[tuple[DriverSpec, float, float]], block: int) -> Rule:
    """B's rule for one block (0 Brownian, 1 jump) of a part made of groups
    ``(base, gamma_a, gamma_b)``: their fraction if they all give B one, else
    the radial hand-back. ``Variance`` is ``q r**2`` (``q = alpha / gamma``),
    ``NormCD`` is ``c r``, and the groups merge by ``(q1, c1) # (q2, c2) = (q1
    q2 / (q1 + q2), min(c1, c2))``. Of radius r, the quadratic part ``min(1, c
    / (2 q r))`` is shared in inverse proportion to q and the linear rest goes
    to the cheapest slope (by gamma on a tie); B gets ``w_q`` of the one and
    ``w_c`` of the other, a fixed fraction if only one part is shared.
    """
    fractions = {gamma_b / (gamma_a + gamma_b) for _, gamma_a, gamma_b in groups}
    if len(fractions) == 1:
        return fractions.pop()
    q = c = math.inf
    w_q, tie = 0.0, [0.0, 0.0]
    for base, gamma_a, gamma_b in groups:
        gamma = gamma_a + gamma_b
        if isinstance(base, Variance):
            q_g, f = base.alpha / gamma, gamma_b / gamma
            total = q + q_g
            q, w_q = (q_g, f) if q == math.inf else \
                (q * q_g / total, w_q * (q_g / total) + f * (q / total))
            continue
        slope = (base.c, base.d)[block]
        if slope < c:
            c, tie = slope, [gamma_a, gamma_b]
        elif slope == c:
            tie = [tie[0] + gamma_a, tie[1] + gamma_b]
    if c == math.inf:
        return w_q
    w_c = tie[1] / (tie[0] + tie[1])
    if q == math.inf and min(tie) > 0.0:
        return w_c
    two_q, slope = 2.0 * q, w_q - w_c
    return lambda r: w_c + slope * np.minimum(1.0, c / (two_q * r))


def _split_plan(g_a: DriverSpec, g_b: DriverSpec) -> tuple:
    """The pair in normal form: its parts, each as one driver with B's rules
    for its own share, in order of first appearance; one part is closed form.

    Atoms of one base pool into ``Scaled(gamma_a + gamma_b, base)``, of which B
    holds ``gamma_b / (gamma_a + gamma_b)``: ``Scaled`` is the perspective
    ``gamma * g(x / gamma)``, so this leaves every atom at ``x / (gamma_a +
    gamma_b)``, optimal for any convex base (Jensen). Groups that give B one
    fraction form one part, as do the radial groups; any other group is one.
    """
    bases, gammas = [], []  # bases are compared with ==, never hashed
    for owner, spec in enumerate((g_a, g_b)):
        for gamma, base in _atoms(spec):
            if base not in bases:
                bases.append(base)
                gammas.append([0.0, 0.0])
            gammas[bases.index(base)][owner] += gamma
    common = len({gamma_b / (gamma_a + gamma_b) for gamma_a, gamma_b in gammas}) == 1
    parts: dict = {}
    for base, (gamma_a, gamma_b) in zip(bases, gammas):
        key = common or isinstance(base, (Variance, NormCD)) or id(base)
        parts.setdefault(key, []).append((base, gamma_a, gamma_b))
    return tuple(
        (reduce(InfConv, [base if gamma_a + gamma_b == 1.0 else Scaled(gamma_a + gamma_b, base)
                          for base, gamma_a, gamma_b in groups]),
         (_block_rule(groups, 0), _block_rule(groups, 1)))
        for groups in parts.values())


def _row_norms(a: np.ndarray, weights=None) -> np.ndarray:
    # column by column, so a row's norm does not depend on the other rows
    acc = np.zeros(a.shape[0])
    for j in range(a.shape[1]):
        sq = a[:, j] * a[:, j]
        acc += sq if weights is None else sq * weights[j]
    return np.sqrt(acc)


def _share_block(rule: Rule, X: np.ndarray, weights=None) -> np.ndarray:
    """B's share of every row of a block under its plan rule; a
    radius-dependent rule gives nothing at zero radius."""
    if not callable(rule):
        return rule * X
    r = _row_norms(X, weights)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(r > 0.0, rule(r), 0.0)
    return theta[:, None] * X


def proportional_share_factor(g_a: DriverSpec, g_b: DriverSpec) -> float | None:
    """B's share fraction when the split plan hands B one fixed fraction of
    both blocks at every node, so that ``infconv_split`` returns exactly
    ``(f * H, f * Ht)``; None otherwise."""
    return _share_factor(_split_plan(g_a, g_b))


def _share_factor(parts: tuple) -> float | None:
    """The one fixed fraction of both blocks that a split plan hands B, or None."""
    (_, (rule_h, rule_j)), *rest = parts
    return None if rest or callable(rule_h) or rule_h != rule_j else rule_h


def _unbounded(g_a: DriverSpec, g_b: DriverSpec, nu: JumpMeasure) -> bool:
    """Whether the pair's inf-convolution is -inf everywhere: its conjugate,
    the sum of the atoms' conjugates (Rockafellar 1970, Thm 16.4), has an
    empty domain. Every ``CVaRJump`` domain holds the jump density ``-nu /
    total``, of least dual norm ``1 / sqrt(total)``; a ``NormCD`` domain is
    the dual-norm ball of radius ``d``. ``Scaled`` changes neither kind."""
    bases = [base for _, base in _atoms(g_a) + _atoms(g_b)]
    return any(isinstance(base, CVaRJump) for base in bases) and any(
        isinstance(base, NormCD) and base.d * math.sqrt(nu.total_intensity) < 1.0
        for base in bases)


# -- numeric inf-convolution for plans without a closed form -----------------------


def _joint_split(drivers: list[DriverSpec], t: float, x: np.ndarray, d: int,
                 nu: JumpMeasure, cfg: SolverConfig) -> np.ndarray:
    """The amounts ``(k, d + m)`` of the row ``x = (h, ht)`` minimising
    ``sum_i g_i(x_i)``: one solve for drivers 2..k (the first keeps the rest)
    from ``x / k`` each, polished against the k**2 block corners (diagonal
    first, then by jump and Brownian owner), so piecewise linear plans are exact."""
    (first, *others), k, p = drivers, len(drivers), x.shape[0]

    def amounts(free):  # reduce leaves one row as it is; a sum turns -0.0 into +0.0
        free = free.reshape(k - 1, p)
        return x - reduce(np.add, free), free

    def objective(free):
        rest, free = amounts(free)
        total = first.value(t, rest[:d], rest[d:], nu)
        for g, z in zip(others, free):
            total += g.value(t, z[:d], z[d:], nu)
        return total

    def subgrad(free):
        rest, free = amounts(free)
        s_first = first.subgradient(t, rest[:d], rest[d:], nu)
        return np.concatenate([g.subgradient(t, z[:d], z[d:], nu) - s_first
                               for g, z in zip(others, free)])

    result = minimize(objective, subgrad, np.tile(x / k, k - 1), cfg)
    best_x, best_f = result.argmin, result.value
    for b, j in [(i, i) for i in range(k)] + [(b, j) for j in range(k) for b in range(k) if b != j]:
        corner = np.zeros((k, p))
        corner[b, :d], corner[j, d:] = x[:d], x[d:]
        f = float(objective(cand := corner[1:].ravel()))
        if _better(f, cand, best_f, best_x):
            best_f, best_x = f, cand
    return np.vstack(amounts(best_x))


# -- public inf-convolution ---------------------------------------------------------


def _apply(parts: tuple, t: float | np.ndarray, H: np.ndarray, Ht: np.ndarray,
           nu: JumpMeasure, cfg: SolverConfig | None) -> tuple[np.ndarray, np.ndarray]:
    """B's share of every row split optimally among the parts: one by its
    rules; more by one joint solve per row at its time (``t`` is one time or
    one per row), then each part's amount by its rules, summed in part order."""
    (_, rules), *rest = parts
    if not rest:
        return _share_block(rules[0], H), _share_block(rules[1], Ht, nu.intensity_array)
    X, d, cfg = np.concatenate([H, Ht], axis=1), H.shape[1], cfg or SolverConfig()
    amounts = np.empty((len(X), len(parts), X.shape[1]))
    for v, t_v in enumerate(_row_times(t, len(X))):
        amounts[v] = _joint_split([part[0] for part in parts], t_v, X[v], d, nu, cfg)
    shares = [(_share_block(rule_h, amounts[:, i, :d]),
               _share_block(rule_j, amounts[:, i, d:], nu.intensity_array))
              # B holds none of the first, and adding a zero could flip -0.0
              for i, (_, (rule_h, rule_j)) in enumerate(parts) if i or rules != (0.0, 0.0)]
    return tuple(reduce(np.add, blocks) for blocks in zip(*shares))


def infconv_split(g_a: DriverSpec, g_b: DriverSpec, t: float | np.ndarray,
                  H: np.ndarray, Ht: np.ndarray, nu: JumpMeasure,
                  cfg: SolverConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """B's optimal share ``(Z, Zt)`` of every row of the integrands ``H``
    (rows, d) and ``Ht`` (rows, m); A keeps ``(H - Z, Ht - Zt)``. The rows
    may come from any nodes of any levels: ``t`` is one time for all of them
    or a (rows,) array of each row's time.

    A closed-form plan splits all rows at once (``Z = theta_B * H``, ``Zt =
    theta_J * Ht``), any other by one joint numeric solve per row with ``cfg``.
    """
    H, Ht = np.asarray(H, dtype=float), np.asarray(Ht, dtype=float)
    return _apply(_split_plan(g_a, g_b), t, H, Ht, nu, cfg)


def _split_objective(g_a: DriverSpec, g_b: DriverSpec, t: float, H: np.ndarray,
                     Ht: np.ndarray, Z: np.ndarray, Zt: np.ndarray,
                     nu: JumpMeasure) -> np.ndarray:
    return g_a.value_batch(t, H - Z, Ht - Zt, nu) + g_b.value_batch(t, Z, Zt, nu)


def infconv_value(g_a: DriverSpec, g_b: DriverSpec, t: float, h, htilde,
                  nu: JumpMeasure, cfg: SolverConfig | None = None
                  ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Pointwise inf-convolution inf_z { g_a(x - z) + g_b(z) } with its argmin.

    Both drivers flatten into scaled atoms, however deeply ``Scaled`` and
    ``InfConv`` nest (``_split_plan``). ``Variance`` and ``NormCD`` atoms split
    in closed form per block (``_block_rule``: harmonic mean, cheaper slope,
    Huber); ``CVaRJump`` and ``Custom`` atoms run the numeric solver with
    block-corner candidates. The value is the objective at the split
    (``infconv_split`` on one row). ``htilde`` must have one entry per mark,
    as for ``eval_driver``.
    """
    H, Ht = _as_vec(h)[None, :], _jump_vec(htilde, nu)[None, :]
    Z, Zt = infconv_split(g_a, g_b, t, H, Ht, nu, cfg)
    value = _split_objective(g_a, g_b, t, H, Ht, Z, Zt, nu)
    return float(value[0]), (Z[0], Zt[0])


def certificate_gaps(g_a: DriverSpec, g_b: DriverSpec, t: float | np.ndarray,
                     H: np.ndarray, Ht: np.ndarray, Z: np.ndarray, Zt: np.ndarray,
                     nu: JumpMeasure) -> tuple[np.ndarray, ...]:
    """Directional-derivative test of the split ``(Z, Zt)`` of every row, at
    one time ``t`` or a (rows,) array of each row's time; returns ``(part_a,
    part_b, values, gaps)``: A's and B's terms of the objective at the split,
    ``g_a(H - Z, Ht - Zt)`` and ``g_b(Z, Zt)``, their sum and each row's gap.

    Each split ``(z, zt)`` is probed along every coordinate in both directions
    with step ``eps = 1e-7 * (1 + |(z, zt)|)``; the row's gap is its steepest
    descent slope (0 if none descends). A split is optimal exactly when no
    direction descends, the finite-dimensional form of the two
    subdifferentials intersecting. All rows and probes go through one
    ``value_batch`` call per driver.
    """
    d, m = H.shape[1], Ht.shape[1]
    points = np.concatenate([Z, Zt], axis=1)
    n, p = points.shape
    eps = 1e-7 * (1.0 + _row_norms(points))
    steps = np.concatenate([np.eye(p), -np.eye(p)])
    probes = points + steps[:, None, :] * eps[:, None]
    stack = np.concatenate([points, probes.reshape(-1, p)])
    k = 2 * p + 1
    t = t if np.ndim(t) == 0 else np.tile(t, k)
    # A's rows: each row's own integrands less each of its k points, in point-major order
    part_a = g_a.value_batch(t, (H - stack[:, :d].reshape(k, n, d)).reshape(k * n, d),
                             (Ht - stack[:, d:].reshape(k, n, m)).reshape(k * n, m), nu)
    part_b = g_b.value_batch(t, stack[:, :d], stack[:, d:], nu)
    values = (part_a + part_b).reshape(k, n)
    f0 = values[0]
    gaps = np.max((f0 - values[1:]) / eps, axis=0, initial=0.0)
    return part_a[:n], part_b[:n], f0, gaps


def solve_sharing(lat: Lattice, prob: SharingProblem) -> SharingSolution:
    """Solve the sharing problem on a lattice: one split, transfer, price.

    The split at each node is a pointwise problem, so the nodes of every
    level are the rows of one: ``_split_plan`` is built once, and one
    ``_apply`` and one ``certificate_gaps`` call take every level's rows,
    stacked, with each row's time; the results are cut back into levels. The
    row layout (each row's time, each level's bounds and its zero residuals
    for ``assemble``) is the lattice's ``_level_rows``, formed at the first
    share on a lattice and read-only. The node values are the objective at
    the split. When representation residuals are nonzero (jump lattices) the
    solve runs on the projected integrands and the largest residual is
    attached rather than silently dropped; configure
    ``solver.residual_tolerance`` to make it fatal (``NumericError``). A pair
    whose inf-convolution is unbounded below (``_unbounded``) is never
    attained, whatever its certificate reads.

    The price and the welfare changes come from the split itself, with no
    further representation: B's post-transfer position ``y* - price`` has the
    integrands ``(Z, Zt)`` and A's has ``(H - Z, Ht - Zt)``, so each agent's
    deviation after the transfer is the backward sum of its own term of the
    node objective, and the two sum to the inf-convolution. Only the total is
    represented, as only its residuals are reported; the two payoffs' means
    and standalone deviations take the residual-free ``_levels`` pass. These
    backward sums and passes stay per payoff and per level: a one-node
    level's matrix product, stacked with other rows, can round apart.
    """
    if prob.x_a.level != lat.n_steps or prob.x_b.level != lat.n_steps:
        raise ValueError("sharing payoffs must be terminal")
    cfg = prob.solver
    nu = lat.noise.jumps
    g_a, g_b = prob.driver_a, prob.driver_b
    total = prob.x_a + prob.x_b
    pair = represent(lat, total)
    max_res = pair.max_residual()
    if max_res > cfg.residual_tolerance:
        raise NumericError(
            f"representation residual {max_res:.3g} exceeds the configured "
            f"threshold {cfg.residual_tolerance:.3g}"
        )

    t, bounds, zero_res = lat._level_rows()
    H, Ht = np.concatenate(pair.H), np.concatenate(pair.Htilde)
    plan = _split_plan(g_a, g_b)
    Z, Zt = _apply(plan, t, H, Ht, nu, cfg)
    part_a, part_b, values, gaps = certificate_gaps(g_a, g_b, t, H, Ht, Z, Zt, nu)
    certificate_gap = float(np.max(gaps))
    unbounded = _unbounded(g_a, g_b, nu)
    attained = certificate_gap <= cfg.attain_tolerance and bool(np.isfinite(values).all()) \
        and not unbounded
    arg_H, arg_Ht, parts_a, parts_b, node_vals = (
        tuple(rows[lo:hi] for lo, hi in bounds) for rows in (Z, Zt, part_a, part_b, values))

    infconv_d = AdaptedProcess(_accumulate(lat, node_vals))
    # each agent's time-zero deviation after the transfer
    dev_a = float(_accumulate(lat, parts_a)[0][0])
    dev_b = float(_accumulate(lat, parts_b)[0][0])

    y_star = assemble(lat, RepresentingPair(0.0, arg_H, arg_Ht, zero_res))
    y_tilde = y_star - prob.x_b

    mart_a, levels_a = _levels(lat, g_a, prob.x_a.values, lat.n_steps)
    mart_b, levels_b = _levels(lat, g_b, prob.x_b.values, lat.n_steps)
    mean_a, mean_b = float(mart_a[0][0]), float(mart_b[0][0])
    d0_a, d0_b = float(levels_a[0][0]), float(levels_b[0][0])
    # y* has zero mean, so E[y_tilde] = -mean_b; B ends up holding y* - price
    # and A holds x_a - y_tilde + price
    price = -mean_b - dev_b + d0_b
    u_a_before = mean_a - d0_a
    u_a_after = (mean_a + mean_b + price) - dev_a
    u_b_before = mean_b - d0_b
    u_b_after = -price - dev_b

    return SharingSolution(
        argmin_H=arg_H,
        argmin_Ht=arg_Ht,
        y_star=y_star,
        y_tilde_star=y_tilde,
        price=price,
        infconv_d=infconv_d,
        attained=attained,
        unbounded=unbounded,
        share_factor=_share_factor(plan),
        certificate_gap=certificate_gap,
        du_a=u_a_after - u_a_before,
        du_b=u_b_after - u_b_before,
        d0_a=d0_a,
        d0_b=d0_b,
        max_residual=max_res,
        total_pair=pair,
    )

