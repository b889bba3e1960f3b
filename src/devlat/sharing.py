"""Two-agent optimal risk sharing via pointwise inf-convolution of drivers.

The total position's integrands are split between the agents' penalties one
lattice level at a time; the optimal split assembles into the transfer payoff,
and the price comes from the counterparty's binding participation constraint at
time zero. Transfers are unique only up to time-zero constants, so the
assembled transfer is normalised to zero mean and the price reported separately.

One split plan (``_split_plan``) decides how a pair splits, and both the
solver and ``proportional_share_factor`` read it. Scalings of one common base
split first, at the fixed fraction ``gamma_b / (gamma_a + gamma_b)`` whatever
the base. Otherwise ``Variance``, ``NormCD`` and any ``Scaled`` nesting of them
are a radial term in ``|h|`` plus a radial term in ``||htilde||_nu``:
quadratic ``q * r**2`` or linear ``c * r``. A pair of such drivers therefore
splits into two 1-D inf-convolutions with closed forms (harmonic mean, cheaper
slope, Huber), which are solved for a whole level at once. Only the other pairs
(``CVaRJump``, ``Custom``, nested ``InfConv``) run the numeric solver, node by
node.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .deviation import _accumulate, evaluate
from .drivers import DriverSpec, NormCD, Scaled, Variance
from .lattice import AdaptedProcess, JumpMeasure, Lattice, RandomVariable
from .optim import NumericError, SolverConfig, _better, minimize
from .representation import RepresentingPair, assemble, represent

__all__ = [
    "SharingProblem",
    "SharingSolution",
    "ResidualRiskReport",
    "radial_form",
    "infconv_split",
    "infconv_value",
    "certificate_gaps",
    "solve_sharing",
    "proportional_share_factor",
    "proportional_transfer",
    "residual_check",
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
    all nodes. ``d0_a``/``d0_b`` are each agent's time-zero deviation of its own
    payoff before the transfer.
    """

    argmin_H: tuple[np.ndarray, ...]
    argmin_Ht: tuple[np.ndarray, ...]
    y_star: RandomVariable
    y_tilde_star: RandomVariable
    price: float
    infconv_d: AdaptedProcess
    attained: bool
    certificate_gap: float
    du_a: float
    du_b: float
    d0_a: float
    d0_b: float
    max_residual: float
    total_pair: RepresentingPair
    jumps: JumpMeasure


# -- closed forms for the radial driver family ------------------------------------

#: one radial block term: ("quad", q) for q * r**2, or ("lin", c) for c * r
Term = tuple[str, float]


def _unscale(spec: DriverSpec) -> tuple[float, DriverSpec]:
    """``(gamma, core)``: the product of the ``Scaled`` factors and the driver
    they wrap."""
    gamma, core = 1.0, spec
    while isinstance(core, Scaled):
        gamma *= core.gamma
        core = core.base
    return gamma, core


def radial_form(spec: DriverSpec) -> tuple[float, Term, Term] | None:
    """``(gamma, Brownian term, jump term)`` of a ``Variance`` or ``NormCD``
    under any ``Scaled`` nesting, with ``gamma`` the product of the scalings.

    ``Scaled`` divides a quadratic coefficient by gamma and leaves a linear one
    alone (positive homogeneity). Drivers outside the family give None.
    """
    gamma, core = _unscale(spec)
    if isinstance(core, Variance):
        q = core.alpha / gamma
        return gamma, ("quad", q), ("quad", q)
    if isinstance(core, NormCD):
        return gamma, ("lin", core.c), ("lin", core.d)
    return None


#: B's share fraction of one block: a number when it does not depend on the
#: radius, else a function of the rows' radii
Rule = float | Callable[[np.ndarray], np.ndarray]


def _block_rule(ta: Term, tb: Term, tie: float) -> Rule:
    """B's rule for one block of a radial pair: quad+quad ``q_a / (q_a +
    q_b)``; lin+lin all to the cheaper slope, ``tie`` on equal slopes;
    quad+lin and lin+quad the Huber split at the knee ``c / (2q)``."""
    (kind_a, a), (kind_b, b) = ta, tb
    if kind_a == kind_b == "quad":
        return a / (a + b)
    if kind_a == kind_b:
        return tie if a == b else lambda r: np.full(r.shape, float(b < a))
    if kind_a == "quad":
        return lambda r: np.maximum(0.0, 1.0 - b / (2.0 * a * r))
    return lambda r: np.minimum(1.0, a / (2.0 * b * r))


def _split_plan(g_a: DriverSpec, g_b: DriverSpec) -> tuple[Rule, Rule] | None:
    """How the pair splits: B's rule for the Brownian block and for the jump
    block, or None when only the numeric solver applies.

    Scalings of one common base come first, at ``gamma_b / (gamma_a +
    gamma_b)`` whatever the base: ``Scaled`` is the perspective ``gamma *
    g(x / gamma)``, so for a convex base this split leaves both agents at ``x /
    (gamma_a + gamma_b)`` and is optimal by Jensen's inequality. Other pairs of
    the radial family get one rule per block (``_block_rule``)."""
    (gamma_a, core_a), (gamma_b, core_b) = _unscale(g_a), _unscale(g_b)
    tie = gamma_b / (gamma_a + gamma_b)
    if core_a == core_b:
        return tie, tie
    form_a, form_b = radial_form(g_a), radial_form(g_b)
    if form_a is None or form_b is None:
        return None
    return _block_rule(form_a[1], form_b[1], tie), _block_rule(form_a[2], form_b[2], tie)


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
    ``(f * H, f * Ht)``: ``gamma_b / (gamma_a + gamma_b)`` for scalings of one
    base, ``q_a / (q_a + q_b)`` for other quadratic pairs; None otherwise."""
    plan = _split_plan(g_a, g_b)
    if plan is None or callable(plan[0]) or plan[0] != plan[1]:
        return None
    return plan[0]


# -- numeric inf-convolution for pairs without a closed form -----------------------


def _numeric_infconv(g_a: DriverSpec, g_b: DriverSpec, t: float, h: np.ndarray,
                     ht: np.ndarray, nu: JumpMeasure,
                     cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Numeric solve from the symmetric midpoint, then polish against the
    block-corner candidates (all-to-A, all-to-B, and the mixed Brownian/jump
    corners), which renders piecewise linear pairs exact."""
    d = h.shape[0]

    def split(zfull):
        return zfull[:d], zfull[d:]

    def objective(zfull):
        z, zt = split(zfull)
        return g_a.value(t, h - z, ht - zt, nu) + g_b.value(t, z, zt, nu)

    def subgrad(zfull):
        z, zt = split(zfull)
        sa = g_a.subgradient(t, h - z, ht - zt, nu)
        sb = g_b.subgradient(t, z, zt, nu)
        return sb - sa

    full = np.concatenate([h, ht])
    result = minimize(objective, subgrad, full / 2.0, cfg)

    zeros = np.zeros_like(full)
    cross_a = np.concatenate([h, np.zeros_like(ht)])
    cross_b = np.concatenate([np.zeros_like(h), ht])
    best_x, best_f = result.argmin, result.value
    for cand in (zeros, full, cross_a, cross_b):
        f = float(objective(cand))
        if _better(f, cand, best_f, best_x):
            best_f, best_x = f, cand
    z, zt = split(best_x)
    return z.copy(), zt.copy()


# -- public inf-convolution ---------------------------------------------------------


def infconv_split(g_a: DriverSpec, g_b: DriverSpec, t: float, H: np.ndarray,
                  Ht: np.ndarray, nu: JumpMeasure, cfg: SolverConfig | None = None,
                  method: str = "auto") -> tuple[np.ndarray, np.ndarray]:
    """B's optimal share ``(Z, Zt)`` of every row of a level's integrands
    ``H`` (nodes, d) and ``Ht`` (nodes, m); A keeps ``(H - Z, Ht - Zt)``.

    Pairs with a split plan are split in closed form for all rows at once
    (``Z = theta_B * H``, ``Zt = theta_J * Ht``). Other pairs, and
    ``method="numeric"``, solve row by row with the numeric minimiser.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric'")
    H = np.asarray(H, dtype=float)
    Ht = np.asarray(Ht, dtype=float)
    plan = _split_plan(g_a, g_b) if method == "auto" else None
    if plan is not None:
        return _share_block(plan[0], H), _share_block(plan[1], Ht, nu.intensity_array)
    cfg = cfg or SolverConfig()
    Z, Zt = np.zeros_like(H), np.zeros_like(Ht)
    for v in range(H.shape[0]):
        Z[v], Zt[v] = _numeric_infconv(g_a, g_b, t, H[v], Ht[v], nu, cfg)
    return Z, Zt


def _split_objective(g_a: DriverSpec, g_b: DriverSpec, t: float, H: np.ndarray,
                     Ht: np.ndarray, Z: np.ndarray, Zt: np.ndarray,
                     nu: JumpMeasure) -> np.ndarray:
    return g_a.value_batch(t, H - Z, Ht - Zt, nu) + g_b.value_batch(t, Z, Zt, nu)


def infconv_value(g_a: DriverSpec, g_b: DriverSpec, t: float, h, htilde,
                  nu: JumpMeasure, cfg: SolverConfig | None = None,
                  method: str = "auto") -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Pointwise inf-convolution inf_z { g_a(x - z) + g_b(z) } with its argmin.

    Scalings of one common base split first, at ``theta = gamma_b / (gamma_a
    + gamma_b)`` on both blocks. Closed forms cover every other pair of
    ``Variance``/``NormCD`` drivers under any ``Scaled`` nesting, block by
    block (Brownian ``|h|``, jump ``||htilde||_nu``), with B's share fraction
    theta of a block of radius r:

    - quadratic with quadratic: ``theta = q_a / (q_a + q_b)`` (harmonic mean);
    - linear with linear: all to the cheaper slope, and on equal slopes
      ``theta = gamma_b / (gamma_a + gamma_b)``;
    - quadratic A with linear B: ``theta = max(0, 1 - c_b / (2 q_a r))``, and
      the mirror ``min(1, c_a / (2 q_b r))`` (Huber, a Moreau envelope);
    - ``r = 0``: ``theta = 0``.

    Every other pair runs the numeric solver with block-corner candidates;
    ``method="numeric"`` forces it for any pair and is the test oracle for the
    closed forms. The value is the objective at the split (``infconv_split``
    on one row).
    """
    h = np.atleast_1d(np.asarray(h, dtype=float))
    ht = np.atleast_1d(np.asarray(htilde, dtype=float)) if nu.m else np.zeros(0)
    H, Ht = h[None, :], ht[None, :]
    Z, Zt = infconv_split(g_a, g_b, t, H, Ht, nu, cfg, method)
    value = _split_objective(g_a, g_b, t, H, Ht, Z, Zt, nu)
    return float(value[0]), (Z[0], Zt[0])


def certificate_gaps(g_a: DriverSpec, g_b: DriverSpec, t: float, H: np.ndarray,
                     Ht: np.ndarray, Z: np.ndarray, Zt: np.ndarray,
                     nu: JumpMeasure) -> tuple[np.ndarray, ...]:
    """Directional-derivative test of the split ``(Z, Zt)`` of every row of a
    level; returns ``(part_a, part_b, values, gaps)``: A's and B's terms of
    the objective at the split, ``g_a(H - Z, Ht - Zt)`` and ``g_b(Z, Zt)``,
    their sum and each row's gap.

    Each split ``(z, zt)`` is probed along every coordinate in both directions
    with step ``eps = 1e-7 * (1 + |(z, zt)|)``; the row's gap is its steepest
    descent slope (0 if none descends). A split is optimal exactly when no
    direction descends, the finite-dimensional form of the two
    subdifferentials intersecting. All rows and probes go through one
    ``value_batch`` call per driver.
    """
    d = H.shape[1]
    points = np.hstack([Z, Zt])
    n, p = points.shape
    eps = 1e-7 * (1.0 + _row_norms(points))
    steps = np.vstack([np.eye(p), -np.eye(p)])
    probes = points + steps[:, None, :] * eps[:, None]
    stack = np.vstack([points, probes.reshape(-1, p)])
    k = 2 * p + 1
    part_a = g_a.value_batch(t, np.tile(H, (k, 1)) - stack[:, :d],
                             np.tile(Ht, (k, 1)) - stack[:, d:], nu)
    part_b = g_b.value_batch(t, stack[:, :d], stack[:, d:], nu)
    values = (part_a + part_b).reshape(k, n)
    f0 = values[0]
    gaps = np.max((f0 - values[1:]) / eps, axis=0, initial=0.0)
    return part_a[:n], part_b[:n], f0, gaps


def solve_sharing(lat: Lattice, prob: SharingProblem) -> SharingSolution:
    """Solve the sharing problem on a lattice: per-level splits, transfer, price.

    Each level is split with ``infconv_split`` and certified with
    ``certificate_gaps``; the node values are the objective at the split. When
    representation residuals are nonzero (jump lattices) the solve runs on the
    projected integrands and the largest residual is attached rather than
    silently dropped; configure ``solver.residual_tolerance`` to make it fatal
    (``NumericError``).

    The price and the welfare changes come from the split itself, with no
    further representation: B's post-transfer position ``y* - price`` has the
    integrands ``(Z, Zt)`` and A's has ``(H - Z, Ht - Zt)``, so each agent's
    deviation after the transfer is the backward sum of its own term of the
    node objective, and the two sum to the inf-convolution. Only the total and
    the two payoffs are represented.
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

    arg_H, arg_Ht, level_gaps = [], [], []
    node_vals, parts_a, parts_b = [], [], []
    for i in range(lat.n_steps):
        t, H, Ht = lat.times[i], pair.H[i], pair.Htilde[i]
        Z, Zt = infconv_split(g_a, g_b, t, H, Ht, nu, cfg)
        part_a, part_b, vals, gaps = certificate_gaps(g_a, g_b, t, H, Ht, Z, Zt, nu)
        level_gaps.append(np.max(gaps))
        arg_H.append(Z)
        arg_Ht.append(Zt)
        node_vals.append(vals)
        parts_a.append(part_a)
        parts_b.append(part_b)

    certificate_gap = float(np.max(level_gaps)) if level_gaps else 0.0
    attained = certificate_gap <= cfg.attain_tolerance and all(
        np.all(np.isfinite(v)) for v in node_vals
    )

    infconv_d = AdaptedProcess(_accumulate(lat, node_vals))
    # each agent's time-zero deviation after the transfer
    dev_a = float(_accumulate(lat, parts_a)[0][0])
    dev_b = float(_accumulate(lat, parts_b)[0][0])

    zero_res = tuple(np.zeros(lat.num_nodes(i)) for i in range(lat.n_steps))
    y_star = assemble(
        lat, RepresentingPair(0.0, tuple(arg_H), tuple(arg_Ht), zero_res)
    )
    y_tilde = y_star - prob.x_b

    pair_a, pair_b = represent(lat, prob.x_a), represent(lat, prob.x_b)
    d0_a = evaluate(lat, g_a, pair_a).d0
    d0_b = evaluate(lat, g_b, pair_b).d0
    mean_a, mean_b = pair_a.mean, pair_b.mean
    # y* has zero mean, so E[y_tilde] = -mean_b; B ends up holding y* - price
    # and A holds x_a - y_tilde + price
    price = -mean_b - dev_b + d0_b
    u_a_before = mean_a - d0_a
    u_a_after = (mean_a + mean_b + price) - dev_a
    u_b_before = mean_b - d0_b
    u_b_after = -price - dev_b

    return SharingSolution(
        argmin_H=tuple(arg_H),
        argmin_Ht=tuple(arg_Ht),
        y_star=y_star,
        y_tilde_star=y_tilde,
        price=price,
        infconv_d=infconv_d,
        attained=attained,
        certificate_gap=certificate_gap,
        du_a=u_a_after - u_a_before,
        du_b=u_b_after - u_b_before,
        d0_a=d0_a,
        d0_b=d0_b,
        max_residual=max_res,
        total_pair=pair,
        jumps=nu,
    )


def proportional_transfer(gamma_a: float, gamma_b: float, x_a: RandomVariable,
                          x_b: RandomVariable) -> RandomVariable:
    """Closed-form transfer for common-base scaled drivers:
    gamma_b/(gamma_a+gamma_b) * x_a - gamma_a/(gamma_a+gamma_b) * x_b."""
    if gamma_a <= 0 or gamma_b <= 0:
        raise ValueError("risk tolerances must be positive")
    total = gamma_a + gamma_b
    return (gamma_b / total) * x_a - (gamma_a / total) * x_b


@dataclass(frozen=True)
class ResidualRiskReport:
    """Corner structure of the optimal splits versus origin-smoothness of the
    drivers. When either driver is differentiable at the origin and the total
    position is nonconstant, an interior split must exist somewhere."""

    skipped: bool
    smooth_a: bool
    smooth_b: bool
    premise_met: bool
    interior_node_exists: bool
    corner_share_nodes: int
    corner_complement_nodes: int
    min_share_norm: float
    min_complement_norm: float
    nodes_checked: int
    passed: bool
    note: str = ""


def _smooth_at_origin(driver: DriverSpec, d: int, nu: JumpMeasure) -> bool:
    """Shrinking finite differences decide whether the subgradient at the
    origin is the singleton {0} (all one-sided slopes vanish in the limit).
    Every probe, ``±eps`` along each coordinate for three ``eps``, goes
    through one ``value_batch`` call."""
    dims = d + nu.m
    eps = np.array([1e-4, 1e-5, 1e-6])
    steps = np.vstack([np.eye(dims), -np.eye(dims)])
    probes = (eps[:, None, None] * steps).reshape(-1, dims)
    values = driver.value_batch(0.0, probes[:, :d], probes[:, d:], nu)
    ratios = np.max(np.abs(values).reshape(len(eps), -1), axis=1, initial=0.0) / eps
    return bool(ratios[-1] <= 1e-4 and ratios[-1] <= 0.5 * ratios[0] + 1e-12)


def residual_check(sol: SharingSolution, prob: SharingProblem,
                   margin: float = 1e-8) -> ResidualRiskReport:
    """Check that no agent with an origin-smooth driver is stripped of all risk.

    Classifies the split of every node with a nonzero total integrand as a
    corner (all risk to one side, within ``margin``) or interior, for all
    levels at once.
    """
    pair = sol.total_pair
    nu = sol.jumps
    d = pair.H[0].shape[1]
    full = np.vstack([np.hstack(blocks) for blocks in zip(pair.H, pair.Htilde)])
    if np.max(np.abs(full), initial=0.0) <= 1e-12:
        return ResidualRiskReport(True, False, False, False, False, 0, 0,
                                  math.inf, math.inf, 0, True,
                                  "total position constant; nothing to share")

    smooth_a = _smooth_at_origin(prob.driver_a, d, nu)
    smooth_b = _smooth_at_origin(prob.driver_b, d, nu)
    premise = smooth_a or smooth_b

    z = np.vstack([np.hstack(blocks) for blocks in zip(sol.argmin_H, sol.argmin_Ht)])
    total, share, comp = np.linalg.norm(np.stack([full, z, full - z]), axis=2)
    live = total > 1e-9
    share, comp = share[live], comp[live]
    corner_share = share <= margin
    corner_comp = ~corner_share & (comp <= margin)
    interior = bool(np.any(~corner_share & ~corner_comp))

    if not premise:
        note = "no driver is differentiable at the origin; corners permitted"
        passed = True
    else:
        passed = interior
        note = "" if interior else "origin-smooth driver but only corner splits found"
    return ResidualRiskReport(False, smooth_a, smooth_b, premise, interior,
                              int(corner_share.sum()), int(corner_comp.sum()),
                              float(share.min(initial=math.inf)),
                              float(comp.min(initial=math.inf)),
                              int(live.sum()), passed, note)
