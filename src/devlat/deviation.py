"""Deviation processes: penalty-accumulating backward inductions and probes.

A driver applied to a payoff's representing integrands yields an adapted,
nonnegative supermartingale vanishing at the horizon: each node carries the
conditional expectation of the remaining per-step penalties g(t, H, Htilde)*dt.
This module evaluates that process directly, cross-evaluates it through the
block recursion over coarser partitions, and hosts the axiom and
law-invariance probe suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import CheckOutcome, DriverSpec, _all_passed, _first_violation, eval_driver
from .lattice import (
    AdaptedProcess,
    JumpMeasure,
    Lattice,
    RandomVariable,
    _martingale_levels,
    law,
    law_distance,
    martingale,
)
from .representation import AnalyticPayoff, RepresentingPair, _check_analytic, _check_pair, \
    _project, assemble

__all__ = [
    "evaluate",
    "evaluate_recursive",
    "recursion_gap",
    "deterministic_d0",
    "supermartingale_slack",
    "AxiomReport",
    "axiom_report",
    "LawProbeEntry",
    "LawProbeReport",
    "law_probe",
    "LawMismatchError",
]


def _accumulate(lat: Lattice, node_values, lo: int = 0) -> tuple:
    """Backward sum of per-node values times dt, zero at the last level: each
    node holds the conditional expectation of its children's sums plus its
    own value * dt; levels ``lo..hi`` from the values of steps ``lo..hi-1``,
    where ``hi = lo + len(node_values)`` (the horizon by default). Level
    ``hi - 1`` is its own values times dt; ``+ 0.0`` turns a -0.0 into +0.0,
    as adding the expectation of the zero level would. The values may hold
    several payoffs side by side."""
    hi = lo + len(node_values)
    last = node_values[-1]
    payoffs = len(last) // lat.num_nodes(hi - 1)
    vals = [None] * (hi - 1) + [last * lat.step_dt(hi - 1) + 0.0,
                                np.zeros(payoffs * lat.num_nodes(hi))]
    for i in range(hi - 2, lo - 1, -1):
        vals[i] = lat.expect(i, vals[i + 1]) + node_values[i - lo] * lat.step_dt(i)
    return tuple(vals)


def evaluate(lat: Lattice, driver: DriverSpec, pair: RepresentingPair) -> AdaptedProcess:
    """The deviation process of a payoff's integrands under a driver, by
    backward accumulation: node value = E[child values] + g(t, H, Ht) * dt.

    Validity (nonnegativity, zero terminal level, supermartingale property)
    is inherited from the driver being a true driver; diagnostic evaluations
    under invalid drivers are representable and surfaced by the probes.
    """
    _check_pair(lat, pair)
    return AdaptedProcess(_deviation_levels(lat, driver, pair.H, pair.Htilde))


def _deviation_levels(lat: Lattice, driver: DriverSpec, H, Ht, lo: int = 0) -> tuple:
    """Deviation levels ``lo..n`` of the integrands ``H``, ``Ht`` of steps
    ``lo..n-1``, which may hold several payoffs side by side like ``_project``'s."""
    nu = lat.noise.jumps
    g = [np.asarray(driver.value_batch(lat.times[i], H[i - lo], Ht[i - lo], nu), dtype=float)
         for i in range(lo, lat.n_steps)]
    return _accumulate(lat, g, lo)


def _levels(lat: Lattice, driver: DriverSpec, values, level: int, lo: int = 0) -> tuple:
    """The conditional means and deviation levels ``lo..n`` of the payoffs
    measurable at ``level`` in ``values``: the bits of ``represent`` and
    ``evaluate`` on those levels, without the residuals."""
    mart = _martingale_levels(lat, values, level, lo)
    if lo == lat.n_steps:  # D_n = 0: the window holds no step
        return mart, (None,) * lo + (np.zeros(len(mart[lo])),)
    return mart, _deviation_levels(lat, driver, *_project(lat, mart, lo), lo)


def evaluate_recursive(lat: Lattice, driver: DriverSpec, pair: RepresentingPair,
                       partition: list[int]) -> AdaptedProcess:
    """Block recursion: deviations of martingale increments over partition
    cells, summed conditionally.

    Each cell's increment ``M_hi - M_lo`` is re-extracted from the assembled
    payoff and re-represented on the cell's own levels: its conditional
    means on levels ``lo..hi``, its integrands and the driver on the steps of
    ``[lo, hi)``. Every other step takes the driver at the origin, as the
    cell's zero integrands there would. So this is an independent route to
    the same process; it must agree with ``evaluate`` to within accumulation
    noise.
    """
    mart = martingale(lat, assemble(lat, pair)).values
    return AdaptedProcess(_recursive_levels(lat, driver, mart, _partition(lat, partition)))


def recursion_gap(lat: Lattice, driver: DriverSpec, pair: RepresentingPair,
                  dev: AdaptedProcess, partition: list[int]) -> tuple[list[int], float]:
    """The normal form of ``partition`` and the largest gap, over every node
    of every level, between ``dev``, the deviation process of ``pair``, and
    the block recursion of ``pair`` over it (``evaluate_recursive``)."""
    part = _partition(lat, partition)
    return part, _level_gap(dev.values, evaluate_recursive(lat, driver, pair, part).values)


def _partition(lat: Lattice, partition: list[int]) -> list[int]:
    """A partition's normal form: its distinct levels in order, 0 and n among them."""
    part = sorted(set(int(i) for i in partition))
    if any(i < 0 or i > lat.n_steps for i in part):
        raise ValueError("partition levels outside the grid")
    if not part or part[0] != 0 or part[-1] != lat.n_steps:
        raise ValueError("partition must include levels 0 and n")
    return part


def _level_gap(a: tuple, b: tuple) -> float:
    """The largest absolute gap between two processes' levels, node by node."""
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def _recursive_levels(lat: Lattice, driver: DriverSpec, mart, part: list[int]) -> tuple:
    """``evaluate_recursive`` on conditional means ``mart``, sorted ``part``.

    From level ``top`` on, the driver is 0 at the origin on every step, so a
    cell's levels from ``max(hi, top)`` on hold exact +0.0s; the running total
    is never -0.0, so adding them would leave it as it is, and they are skipped."""
    n, d, nu = lat.n_steps, lat.noise.d, lat.noise.jumps
    g0 = driver.value_batch(lat.times[:n], np.zeros((n, d)), np.zeros((n, nu.m)), nu)
    origin = [np.full(lat.num_nodes(i), g0[i]) for i in range(n)]
    top = n
    while top and not origin[top - 1][0]:
        top -= 1
    total = [np.zeros(lat.num_nodes(i)) for i in range(n + 1)]
    for lo, hi in zip(part, part[1:]):
        means = [None] * (n + 1)
        means[hi] = mart[hi] - lat.spread(mart[lo], hi - lo)
        for i in range(hi - 1, lo - 1, -1):
            means[i] = lat.expect(i, means[i + 1])
        H, Ht = _project(lat, means, lo, hi)
        stop = max(hi, top)
        g = origin[:stop]
        g[lo:hi] = [np.asarray(driver.value_batch(lat.times[i], H[i - lo], Ht[i - lo], nu),
                               dtype=float) for i in range(lo, hi)]
        total[:stop] = [a + b for a, b in zip(total[:stop], _accumulate(lat, g))]
    return tuple(total)


def deterministic_d0(driver: DriverSpec, ap: AnalyticPayoff, nu: JumpMeasure) -> float:
    """Time-zero deviation of deterministic integrands on their grid ``ap.grid``:
    sum of g(t_i, h_i, htilde_i)*dt_i. ``htilde``'s width is checked against
    ``nu``; ``h``'s only where a lattice gives ``d`` (``law_probe``)."""
    grid = ap.grid
    total = 0.0
    for i in range(grid.n_steps):
        total += eval_driver(driver, grid.times[i], ap.h[i], ap.htilde[i], nu) \
            * grid.steps[i]
    return float(total)


def supermartingale_slack(lat: Lattice, proc: AdaptedProcess) -> float:
    """Min over nodes of value - E[next-level value | node]; >= 0 up to noise
    for any deviation process of a nonnegative driver."""
    worst = np.inf
    for i in range(lat.n_steps):
        worst = min(worst, float(np.min(proc.at(i) - lat.expect(i, proc.at(i + 1)))))
    return worst


# -- axiom probes -----------------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Sampled verdicts for the deviation-measure axioms at one level."""

    translation: CheckOutcome
    positivity: CheckOutcome
    convexity: CheckOutcome
    continuity: CheckOutcome
    recursion: CheckOutcome
    locality: CheckOutcome
    level: int
    samples: int
    seed: int

    all_passed = _all_passed


#: leaves of the tolerance probes' payoffs stacked into one pass of the level
#: arithmetic; keeps the extra working memory under 1 MB
_STACK_LEAVES = 1 << 14

#: probe cells (payoffs x leaves) that ``axiom_report`` may stack per node of budget
_AXIOM_CELLS_PER_NODE = 64


def _stacked_dev_at(lat, driver, X, level):
    """``D_level`` of the terminal payoffs in the rows of ``X`` from one
    ``_levels`` pass over the payoffs laid side by side, on levels
    ``level..n`` only. One row gives the bits of
    ``evaluate(represent(x)).at(level)``; in a longer stack the means and
    projections may round a row differently, moving its last bits."""
    return _levels(lat, driver, X.ravel(), lat.n_steps, level)[1][level].reshape(len(X), -1)


def _mix(blocks, i, j, lam):
    """Rows ``lam * x_i + (1 - lam) * x_j`` of payoffs ``blocks[k]`` (nodes_t,
    leaves below a node), the weights ``lam`` (rows, nodes_t) per block."""
    lam = lam[:, :, None]
    return (lam * blocks[i] + (1 - lam) * blocks[j]).reshape(len(lam), blocks[0].size)


def axiom_report(lat: Lattice, driver: DriverSpec,
                 payoffs: list[RandomVariable], seed: int = 0,
                 level: int | None = None, mixtures: int = 50) -> AxiomReport:
    """Run the axiom probe suite on sample payoffs.

    Translation invariance is compared bit-exactly (constant and measurable
    integer shifts); convexity and the local property within 1e-10; continuity
    is proxied by a bounded response to shrinking payoff perturbations, since
    L2 convergence is trivial on a finite space; the recursion is checked
    against the block-recursive evaluator on a random partition.

    The bit-exact probes (translation, a measurable payoff) take one pass per
    payoff; the tolerance probes' payoffs are stacked, and their draws (index
    pairs, weights, noise, partition, mask) do not depend on the chunking.
    ``mixtures`` over ``max_nodes``, and probe cells (``mixtures + 3`` payoffs
    of every leaf) over ``_AXIOM_CELLS_PER_NODE`` times it, are refused first.
    """
    budget, cells = lat.max_nodes, (mixtures + 3) * lat.num_nodes(lat.n_steps)
    if mixtures > budget:
        raise ValueError(f"'mixtures' = {mixtures} is over the max_nodes budget {budget}")
    if cells > _AXIOM_CELLS_PER_NODE * budget:
        raise ValueError(f"'mixtures' = {mixtures} gives {cells} probe cells, over "
                         f"{_AXIOM_CELLS_PER_NODE} x the max_nodes budget {budget} = "
                         f"{_AXIOM_CELLS_PER_NODE * budget}")
    if len(payoffs) < 2:
        raise ValueError("need at least two sample payoffs")
    if mixtures < 1:
        raise ValueError("mixtures must be >= 1")
    rng = np.random.default_rng(seed)
    n = lat.n_steps
    t = n // 2 if level is None else level
    lat._check_level(t)
    nodes_t = lat.num_nodes(t)

    # full residual-free passes: positivity and the recursion read every level
    marts = [martingale(lat, x).values for x in payoffs]
    full = [_deviation_levels(lat, driver, *_project(lat, mart)) for mart in marts]
    devs = [f[t] for f in full]

    # translation: constant and F_t-measurable integer shifts leave D_t unchanged
    translation = CheckOutcome(True)
    for x, d in zip(payoffs, devs):
        const = float(rng.integers(1, 6))
        shift_t = rng.integers(-5, 6, size=nodes_t).astype(float)
        for m in (np.full(x.values.shape, const), lat.spread(shift_t, n - t)):
            d_shifted = _stacked_dev_at(lat, driver, (x.values + m)[None], t)[0]
            if not np.array_equal(d_shifted, d):
                gap = float(np.max(np.abs(d_shifted - d)))
                translation = CheckOutcome(False, {"max_abs_gap": gap})
                break
        if not translation.passed:
            break

    # positivity: D >= 0; zero exactly on subtree-measurable payoffs
    positivity = CheckOutcome(True)
    vacuous_only_if = True
    for x, d, f in zip(payoffs, devs, full):
        if any(float(v.min()) < 0.0 for v in f):
            positivity = CheckOutcome(False, {"payoff_min": float(min(v.min() for v in f))})
            break
        zero_nodes = np.flatnonzero(d == 0.0)
        if zero_nodes.size:
            vacuous_only_if = False
            leaves = lat.children(x.values, n - t)[zero_nodes]
            positivity, r = _first_violation(
                leaves.max(axis=1) - leaves.min(axis=1) != 0.0,
                lambda r: {"node": int(zero_nodes[r]), "level": t},
                "zero deviation on a non-constant subtree")
            if r is not None:
                break
    if positivity.passed:
        measurable = lat.spread(rng.integers(-5, 6, size=nodes_t).astype(float), n - t)
        if float(np.max(np.abs(_stacked_dev_at(lat, driver, measurable[None], t)))) != 0.0:
            positivity = CheckOutcome(False, detail="nonzero deviation of a measurable payoff")
        elif vacuous_only_if:
            positivity = CheckOutcome(True, vacuous=True,
                                      detail="only-if direction untriggered on constant-free samples")

    # conditional convexity over measurable mixtures, then the continuity
    # perturbations and the glued payoff, drawn after every weight, stacked
    convexity = CheckOutcome(True)
    blocks = np.stack([lat.children(x.values, n - t) for x in payoffs])
    dev_rows, x0, tail = np.stack(devs), payoffs[0].values, []
    ij = rng.integers(0, len(payoffs), size=(mixtures, 2))
    chunk = max(1, _STACK_LEAVES // x0.size)
    for lo in range(0, mixtures + 3, chunk):
        hi = min(lo + chunk, mixtures + 3)
        i, j = ij[lo:hi].T
        lam_t = rng.uniform(size=(len(i), nodes_t))
        X = _mix(blocks, i, j, lam_t)
        if lo <= mixtures < hi:
            noise = rng.normal(size=x0.shape)
            interior = rng.permutation(np.arange(1, n))[: n // 2]
            mask_t = rng.integers(0, 2, size=nodes_t).astype(float)
            extra = np.vstack([x0 + 1e-3 * noise, x0 + 1e-5 * noise,
                               _mix(blocks, [0], [1], mask_t[None])])
        if hi > mixtures:
            X = np.vstack([X, extra[max(0, lo - mixtures):hi - mixtures]])
        lhs = _stacked_dev_at(lat, driver, X, t)
        tail.append(lhs[len(i):])
        worst = np.max(lhs[:len(i)] - (lam_t * dev_rows[i] + (1 - lam_t) * dev_rows[j]), axis=1)
        if convexity.passed:
            convexity, _ = _first_violation(worst > 1e-10, lambda r: {
                "payoffs": (int(i[r]), int(j[r])),
                "lambda_level": lam_t[r].tolist(),
                "violation": float(worst[r]),
            })
    *d_pert, d_glued = np.vstack(tail)

    # continuity proxy: bounded response to small payoff perturbations
    scale = max(1.0, float(np.max(np.abs(x0)))) * max(1.0, float(np.max(np.abs(noise))))
    eps = np.array([1e-3, 1e-5])
    resp = np.max(np.abs(np.stack(d_pert) - devs[0]), axis=1)
    continuity, _ = _first_violation(resp > 100.0 * eps * scale, lambda k: {
        "eps": float(eps[k]), "response": float(resp[k])})

    # recursion against the block evaluator on a random partition, run on
    # the first sample's own conditional means
    recursion = CheckOutcome(True)
    part = _partition(lat, [0, n, *interior])
    gap = _level_gap(full[0], _recursive_levels(lat, driver, marts[0], part))
    if gap > 1e-12:
        recursion = CheckOutcome(False, {"partition": part, "max_gap": gap})

    # local property on a random measurable set
    locality = CheckOutcome(True)
    worst = float(np.max(np.abs(d_glued - (mask_t * devs[0] + (1 - mask_t) * devs[1]))))
    if worst > 1e-10:
        locality = CheckOutcome(False, {"mask_level": mask_t.tolist(), "max_gap": worst})

    return AxiomReport(translation, positivity, convexity, continuity,
                       recursion, locality, level=t, samples=mixtures, seed=seed)


# -- law probes ---------------------------------------------------------------------


class LawMismatchError(ValueError):
    """A lattice pair handed to the law probe does not share its law."""


@dataclass(frozen=True)
class LawProbeEntry:
    d0_first: float
    d0_second: float
    gap: float
    law_gap: float | None
    continuous_limit_only: bool
    # merged (value, probability) atoms per payoff; None for analytic pairs
    law_first: tuple | None = None
    law_second: tuple | None = None


@dataclass(frozen=True)
class LawProbeReport:
    entries: tuple[LawProbeEntry, ...]

    def max_gap(self) -> float:
        return max((e.gap for e in self.entries), default=0.0)


def law_probe(lat: Lattice, driver: DriverSpec,
              lattice_pairs: list[tuple[RandomVariable, RandomVariable]] = (),
              analytic_pairs: list[tuple[AnalyticPayoff, AnalyticPayoff]] = (),
              law_tol: float = 1e-8) -> LawProbeReport:
    """Compare time-zero deviations across equal-law payoff pairs.

    Lattice pairs must share their law within ``law_tol`` (atom-wise after
    merging); analytic pairs are only equal in law in the continuous limit and
    are flagged as such, since their step integrands live off the tree.
    """
    if not law_tol >= 0:  # NaN fails it too
        raise ValueError("law_tol must be >= 0")
    entries = []
    for x1, x2 in lattice_pairs:
        law1, law2 = law(lat, x1), law(lat, x2)
        dist = law_distance(law1, law2)
        if dist > law_tol:
            raise LawMismatchError(f"pair laws differ by {dist:.3g} > {law_tol:.3g}")
        d1, d2 = (float(_levels(lat, driver, x.values, x.level)[1][0][0]) for x in (x1, x2))
        entries.append(LawProbeEntry(
            d1, d2, abs(d1 - d2), dist, False,
            law_first=(law1.atoms.tolist(), law1.probs.tolist()),
            law_second=(law2.atoms.tolist(), law2.probs.tolist()),
        ))
    nu = lat.noise.jumps
    for a1, a2 in analytic_pairs:
        _check_analytic(lat, a1)
        _check_analytic(lat, a2)
        d1 = deterministic_d0(driver, a1, nu)
        d2 = deterministic_d0(driver, a2, nu)
        entries.append(LawProbeEntry(d1, d2, abs(d1 - d2), None, True))
    return LawProbeReport(tuple(entries))
