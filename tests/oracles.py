"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities from definitions (path enumeration,
candidate scans, finite differences, normal equations, exhaustive grids) without
touching the production code paths it is used to check. The built-in driver
kinds' scalar formulas live here too, as references for their batch forms, and
so does the numeric inf-convolution of a pair as given, the reference for the
closed-form splits. The artifact references at the end are the
node-by-node JSON and CSV writers the level-batched emitters must match byte
for byte, followed by the one-row, one-point and one-node loops that the
batched quantiles, laws, permutations, driver checks, backward sum, block
recursion and axiom probes replace, and the level-by-level loop that the stacked sharing solve
replaces. Then come the former library helpers that only the tests call,
the residual-risk check of criterion 09 among them, and last the CLI run in a
fresh interpreter, the reference for runs in a process that kept state.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np


def enumerate_paths(lat):
    """All terminal paths as (leaf index, outcome tuple, probability)."""
    n, b = lat.n_steps, lat.branching
    out = []
    for outcomes in itertools.product(range(b), repeat=n):
        leaf = 0
        prob = 1.0
        for i, o in enumerate(outcomes):
            leaf = leaf * b + o
            prob *= float(lat.step_probs(i)[o])
        out.append((leaf, outcomes, prob))
    return out


def expectation_by_paths(lat, values):
    return sum(p * values[leaf] for leaf, _, p in enumerate_paths(lat))


def conditional_mean_by_paths(lat, values, level, node):
    """E[X | node] by enumerating the node's descendant leaves."""
    span = lat.branching ** (lat.n_steps - level)
    leaves = range(node * span, (node + 1) * span)
    probs = lat.node_probabilities(lat.n_steps)
    mass = sum(probs[leaf] for leaf in leaves)
    return sum(probs[leaf] * values[leaf] for leaf in leaves) / mass


def conditional_variance_by_paths(lat, values, level, node):
    mu = conditional_mean_by_paths(lat, values, level, node)
    span = lat.branching ** (lat.n_steps - level)
    leaves = range(node * span, (node + 1) * span)
    probs = lat.node_probabilities(lat.n_steps)
    mass = sum(probs[leaf] for leaf in leaves)
    return sum(probs[leaf] * (values[leaf] - mu) ** 2 for leaf in leaves) / mass


def law_by_paths(lat, values, decimals=9):
    """Law as a dict value -> probability, keys rounded for grouping."""
    atoms: dict[float, float] = {}
    probs = lat.node_probabilities(lat.n_steps)
    for leaf, v in enumerate(values):
        key = round(float(v), decimals)
        atoms[key] = atoms.get(key, 0.0) + float(probs[leaf])
    return atoms


def normal_equations_projector(lat, level):
    """The step's least-squares projector ``solve(G, (p * phi).T).T`` from
    the weighted Gram matrix ``G = phi.T @ (p * phi)``."""
    phi, p = lat.step_basis(level)[0], lat.step_probs(level)
    wphi = phi * p[:, None]
    return np.linalg.solve(phi.T @ wphi, wphi.T).T


def project_by_normal_equations(lat, mart):
    """Integrands and residuals of the per-level conditional means ``mart``,
    from the weighted normal equations solved per level for every node."""
    d = lat.noise.d
    H, Ht, res = [], [], []
    for i in range(lat.n_steps):
        phi, p = lat.step_basis(i)[0], lat.step_probs(i)
        wphi = phi * p[:, None]
        dm = lat.children(mart[i + 1]) - mart[i][:, None]
        beta = np.linalg.solve(phi.T @ wphi, (dm @ wphi).T).T
        remainder = dm - beta @ phi.T
        H.append(beta[:, :d])
        Ht.append(beta[:, d:])
        res.append(np.sqrt(np.clip((remainder * remainder) @ p, 0.0, None)))
    return tuple(H), tuple(Ht), tuple(res)


def tail_mass(losses, masses, y):
    """nu({w > y}) straight from the definition."""
    return sum(m for w, m in zip(losses, masses) if w > y)


def var_by_scan(a, htilde, masses):
    """Left quantile by scanning candidate atom values."""
    losses = [-v for v in htilde]
    candidates = sorted(set(losses))
    feasible = [y for y in candidates if tail_mass(losses, masses, y) <= a]
    return min(feasible)


def cvar_by_segments(a, htilde, masses):
    """Integrate the quantile over (0, a] as a step function.

    Breakpoints are the tail masses observed at the candidate values; the
    quantile is re-evaluated by scan at each segment midpoint.
    """
    losses = [-v for v in htilde]
    breaks = sorted({tail_mass(losses, masses, y) for y in losses} | {0.0, a})
    breaks = [b for b in breaks if b <= a]
    if breaks[-1] < a:
        breaks.append(a)
    total = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        if hi <= lo:
            continue
        total += var_by_scan((lo + hi) / 2.0, htilde, masses) * (hi - lo)
    return total / a


def finite_difference_gradient(f, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (f(x + e) - f(x - e)) / (2 * eps)
    return g


def grid_min_1d(f, lo, hi, step):
    xs = np.arange(lo, hi + step / 2, step)
    vals = [f(x) for x in xs]
    k = int(np.argmin(vals))
    return xs[k], vals[k]


def certificate_gap_by_node(objective, point):
    """Directional-derivative test of split optimality at one node.

    The split is optimal exactly when no direction descends, which is the
    finite-dimensional form of the two subdifferentials intersecting. Probes
    every coordinate both ways with step 1e-7 * (1 + |point|) and returns the
    steepest descent slope, 0 if none descends.
    """
    f0 = float(objective(point))
    eps = 1e-7 * (1.0 + float(np.linalg.norm(point)))
    worst = 0.0
    for i in range(point.shape[0]):
        for sign in (1.0, -1.0):
            probe = point.copy()
            probe[i] += sign * eps
            slope = (float(objective(probe)) - f0) / eps
            worst = max(worst, -slope)
    return worst


def quadratic_cvar_infconv_reference(q, a, htilde, masses):
    """inf over zt of ``q * sum_j nu_j (x_j - zt_j)**2 + CVaR_a(zt)``, the
    inf-convolution of a quadratic jump term with ``CVaRJump(a)`` (whose
    Brownian block costs nothing), for ``x = htilde``.

    With CVaR in its Rockafellar-Uryasev form ``min_s s + (1/a) sum_j nu_j
    (-zt_j - s)^+``, each zt_j solves a scalar problem in closed form, which
    leaves the convex function ``s + sum_j phi_j(s)`` of one scalar; it is
    minimised by ternary search over the bracket holding its minimiser.
    """
    x, nu = np.asarray(htilde, dtype=float), np.asarray(masses, dtype=float)
    knee = 1.0 / (2.0 * q * a)

    def objective(s):
        phi = np.where(x + knee <= -s, nu / a * (-x - s) - nu / (4.0 * q * a * a),
                       q * nu * (x + s) ** 2)
        return s + float(np.sum(np.where(x >= -s, 0.0, phi)))

    # F(s) = s beyond max(-x); slope 1 - nu(total)/a < 0 below min(-x - knee)
    lo, hi = float(np.min(-x - knee)), float(np.max(-x))
    for _ in range(200):
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    return objective((lo + hi) / 2.0)


def radial_terms(spec, gamma=1.0):
    """Brownian and jump terms ``(q, c)`` of a tree of ``Variance``,
    ``NormCD``, ``Scaled`` and ``InfConv``, each meaning ``q r**2``
    inf-convolved with ``c r`` (inf for an absent part), read off the driver
    parameters: ``Variance(alpha)`` is ``(alpha, inf)`` on both blocks,
    ``NormCD(c, d)`` is ``(inf, c)`` and ``(inf, d)``, ``Scaled`` divides q by
    its factor (multiplied outer factor first) and ``InfConv`` merges its two
    sides by ``merge_terms``. None outside that family."""
    from devlat import InfConv, NormCD, Scaled, Variance

    if isinstance(spec, Scaled):
        return radial_terms(spec.base, gamma * spec.gamma)
    if isinstance(spec, InfConv):
        sides = radial_terms(spec.a, gamma), radial_terms(spec.b, gamma)
        return None if None in sides else tuple(map(merge_terms, *sides))
    if isinstance(spec, Variance):
        return ((spec.alpha / gamma, math.inf),) * 2
    if isinstance(spec, NormCD):
        return (math.inf, spec.c), (math.inf, spec.d)
    return None


def merge_terms(s, t):
    """``(q1 r**2 # c1 r) # (q2 r**2 # c2 r)``: quadratic coefficients combine
    harmonically and the cheaper slope wins."""
    (q1, c1), (q2, c2) = s, t
    q = q2 if q1 == math.inf else q1 if q2 == math.inf else q1 * q2 / (q1 + q2)
    return q, min(c1, c2)


def radial_infconv_reference(g_a, g_b, h, htilde, masses):
    """The inf-convolution of two radial driver trees at ``(h, htilde)``: per
    block, the Huber value of the merged term at the block's radius, ``q
    r**2`` up to the knee ``c / (2 q)`` and ``c r - c**2 / (4 q)`` beyond."""
    total = 0.0
    radii = (math.sqrt(float(np.dot(h, h))),
             math.sqrt(float(np.dot(np.square(htilde), masses))))
    for s, t, r in zip(radial_terms(g_a), radial_terms(g_b), radii):
        q, c = merge_terms(s, t)
        if q == math.inf:
            total += c * r
        elif c == math.inf or r <= c / (2.0 * q):
            total += q * r * r
        else:
            total += c * r - c * c / (4.0 * q)
    return total


def driver_value_reference(spec, t, h, htilde, nu):
    """A driver's value at one point by each built-in kind's own scalar
    formula, written apart from the batch forms it checks: ``Scaled`` and
    ``InfConv`` recurse into their parts (``InfConv`` at ``infconv_split``'s
    split), and ``Custom`` calls its oracle."""
    from devlat import CVaRJump, InfConv, NormCD, Scaled, Variance

    if isinstance(spec, Variance):
        return spec.alpha * (float(h @ h) + float((htilde * htilde) @ nu.intensity_array))
    if isinstance(spec, NormCD):
        jump = float((htilde * htilde) @ nu.intensity_array)
        return spec.c * float(np.linalg.norm(h)) + spec.d * np.sqrt(jump)
    if isinstance(spec, CVaRJump):
        return cvar_nu_reference(spec.a, htilde, nu)
    if isinstance(spec, Scaled):
        return spec.gamma * driver_value_reference(spec.base, t, h / spec.gamma,
                                                   htilde / spec.gamma, nu)
    if isinstance(spec, InfConv):
        z, zt = _infconv_split_row(spec, t, h, htilde, nu)
        return driver_value_reference(spec.a, t, h - z, htilde - zt, nu) \
            + driver_value_reference(spec.b, t, z, zt, nu)
    return float(spec.value_fn(t, h, htilde, nu))


def driver_subgradient_reference(spec, t, h, htilde, nu):
    """An element of a driver's subdifferential at one point by each built-in
    kind's own scalar formula, as ``driver_value_reference`` recurses."""
    from devlat import CVaRJump, InfConv, NormCD, Scaled, Variance

    if isinstance(spec, Variance):
        return np.concatenate(
            [2.0 * spec.alpha * h, 2.0 * spec.alpha * nu.intensity_array * htilde]
        )
    if isinstance(spec, NormCD):
        # at either kink the zero element of the subdifferential is returned
        hn = float(np.linalg.norm(h))
        gh = spec.c * h / hn if hn > 0 else np.zeros_like(h)
        wj = nu.intensity_array
        jn = np.sqrt(float((htilde * htilde) @ wj))
        gj = spec.d * wj * htilde / jn if jn > 0 else np.zeros_like(htilde)
        return np.concatenate([gh, gj])
    if isinstance(spec, CVaRJump):
        # tail-indicator weights: full mass strictly beyond the quantile, the
        # remaining level mass spread over the boundary atoms
        q = var_nu_reference(spec.a, htilde, nu)
        w = -np.asarray(htilde, dtype=float)
        masses = nu.intensity_array
        strict = w > q
        boundary = w == q
        above = float(masses[strict].sum())
        bmass = float(masses[boundary].sum())
        lam = (spec.a - above) / bmass if bmass > 0 else 0.0
        weights = np.where(strict, masses, 0.0) + np.where(boundary, lam * masses, 0.0)
        return np.concatenate([np.zeros(len(np.atleast_1d(h))), -weights / spec.a])
    if isinstance(spec, Scaled):
        # chain rule: the outer factor cancels the inner 1/gamma
        return driver_subgradient_reference(spec.base, t, h / spec.gamma,
                                            htilde / spec.gamma, nu)
    if isinstance(spec, InfConv):
        # the larger-magnitude entry of the two sides' selections, coordinate
        # by coordinate, as ``InfConv.subgradient_batch`` picks it
        z, zt = _infconv_split_row(spec, t, h, htilde, nu)
        sa = driver_subgradient_reference(spec.a, t, h - z, htilde - zt, nu)
        sb = driver_subgradient_reference(spec.b, t, z, zt, nu)
        return np.where(np.abs(sa) >= np.abs(sb), sa, sb)
    return np.asarray(spec.subgradient_fn(t, h, htilde, nu), dtype=float)


def _infconv_split_row(spec, t, h, htilde, nu):
    from devlat import infconv_split

    Z, Zt = infconv_split(spec.a, spec.b, t, h[None, :], htilde[None, :], nu, spec.solver)
    return Z[0], Zt[0]


def numeric_infconv_value(g_a, g_b, t, h, htilde, nu, cfg=None):
    """``infconv_value`` by the numeric solver on the pair as given, the
    oracle for the closed forms: ``_apply`` on the plan that solves ``g_a``
    against ``g_b`` and hands B all of ``g_b``'s part. Returns ``(value, (z,
    zt))``."""
    from devlat.sharing import _apply, _split_objective

    h = np.atleast_1d(np.asarray(h, dtype=float))
    ht = np.atleast_1d(np.asarray(htilde, dtype=float)) if nu.m else np.zeros(0)
    H, Ht = h[None, :], ht[None, :]
    Z, Zt = _apply(((g_a, (0.0, 0.0)), (g_b, (1.0, 1.0))), t, H, Ht, nu, cfg)
    value = _split_objective(g_a, g_b, t, H, Ht, Z, Zt, nu)
    return float(value[0]), (Z[0], Zt[0])


#: refuse exhaustive grids beyond this many evaluations
BRUTE_FORCE_BUDGET = 20_000_000


def brute_force_min(evaluate, box, step):
    """Exhaustive grid minimisation over a box, dimensions <= 3; ties resolve
    as ``minimize``'s do, to the smaller-norm point."""
    from devlat.optim import _better

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
    best_x, best_f = np.full(len(box), math.inf), math.inf
    for pt in points:
        f = float(evaluate(pt))
        if _better(f, pt, best_f, best_x):
            best_f, best_x = f, pt
    return best_x, best_f


def canonical_json_reference(obj):
    """Indent-2, sorted-key JSON through the standard library encoder, with
    numpy values converted and non-finite floats refused first."""

    def canonical(o):
        if isinstance(o, dict):
            return {str(k): canonical(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [canonical(v) for v in o]
        if isinstance(o, (np.floating, float)):
            f = float(o)
            if not math.isfinite(f):
                raise ValueError("non-finite float in JSON payload")
            return f
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.ndarray):
            return [canonical(v) for v in o.tolist()]
        if isinstance(o, (str, int, bool)) or o is None:
            return o
        raise TypeError(f"cannot serialise {type(o).__name__}")

    return json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n"


def pair_to_dict_reference(pair):
    """Representing pair as nested lists of one dict per node."""
    return {
        "mean": pair.mean,
        "levels": [
            {
                "level": i,
                "nodes": [
                    {
                        "node": v,
                        "H": pair.H[i][v].tolist(),
                        "Htilde": pair.Htilde[i][v].tolist(),
                        "residual": float(pair.residuals[i][v]),
                    }
                    for v in range(pair.H[i].shape[0])
                ],
            }
            for i in range(pair.n_steps)
        ],
    }


def lattice_to_dict_reference(lat):
    """Lattice description with one dict per level and per step outcome."""
    edges = []
    for i in range(lat.n_steps):
        dw = lat.step_dw(i)
        probs = lat.step_probs(i)
        edges.append([
            {
                "dw": dw[o].tolist(),
                "jump": int(lat.outcome_labels[o]),
                "prob": float(probs[o]),
            }
            for o in range(lat.branching)
        ])
    return {
        "grid": {"times": list(lat.times)},
        "noise": {
            "d": lat.noise.d,
            "jumps": {
                "marks": [list(x) for x in lat.noise.jumps.marks],
                "intensities": list(lat.noise.jumps.intensities),
            },
        },
        "branching": lat.branching,
        "levels": [
            {"level": i, "nodes": lat.num_nodes(i)} for i in range(lat.n_steps + 1)
        ],
        "edges": edges,
    }


def process_csv_reference(path, values_per_level, columns=("value",)):
    """level,node,<columns> rows through csv.writer, one node at a time; a
    node's value is a scalar or one value per column."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["level", "node", *columns])
        for level, vals in enumerate(values_per_level):
            for node, v in enumerate(vals):
                out.writerow([level, node, *(repr(float(c)) for c in np.ravel(v))])


def payoff_csv_reference(path, values):
    """leaf,value rows through csv.writer, one leaf at a time."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["leaf", "value"])
        for leaf, v in enumerate(values):
            out.writerow([leaf, repr(float(v))])


def argmins_csv_reference(path, lat, sol):
    """share_argmins.csv rows through csv.writer, one node at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        d, m = lat.noise.d, lat.noise.jumps.m
        w.writerow(["level", "node"]
                   + [f"z{i + 1}" for i in range(d)]
                   + [f"ztilde{j + 1}" for j in range(m)])
        for level in range(lat.n_steps):
            for node in range(lat.num_nodes(level)):
                row = [level, node]
                row += [repr(float(v)) for v in sol.argmin_H[level][node]]
                row += [repr(float(v)) for v in sol.argmin_Ht[level][node]]
                w.writerow(row)


def sharing_pricing_by_representation(lat, prob, sol):
    """Price and welfare changes of a sharing solution by re-representing
    every position: five ``represent`` + ``evaluate`` round trips, on x_a, x_b,
    x_b + y_tilde and both post-transfer positions, as the solver once priced.

    Returns ``price``, ``du_a``, ``du_b`` and each agent's time-zero deviation
    after the transfer, ``dev_a`` and ``dev_b``.
    """
    from devlat import evaluate, martingale, represent

    def d0(driver, payoff):
        return evaluate(lat, driver, represent(lat, payoff)).d0

    def mean(payoff):
        return float(martingale(lat, payoff).at(0)[0])

    y_tilde = sol.y_tilde_star
    d0_a, d0_b = d0(prob.driver_a, prob.x_a), d0(prob.driver_b, prob.x_b)
    price = mean(y_tilde) - d0(prob.driver_b, prob.x_b + y_tilde) + d0_b
    pos_a = prob.x_a - y_tilde + price
    pos_b = prob.x_b + y_tilde - price
    dev_a, dev_b = d0(prob.driver_a, pos_a), d0(prob.driver_b, pos_b)
    du_a = (mean(pos_a) - dev_a) - (mean(prob.x_a) - d0_a)
    du_b = (mean(pos_b) - dev_b) - (mean(prob.x_b) - d0_b)
    return {"price": price, "du_a": du_a, "du_b": du_b,
            "dev_a": dev_a, "dev_b": dev_b}


def load_payoff_csv_reference(path, lat):
    """leaf,value rows through csv.reader, one leaf at a time; a repeated leaf
    keeps its last value."""
    from devlat import RandomVariable

    leaves = lat.num_nodes(lat.n_steps)
    values = np.full(leaves, np.nan)
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or [h.strip() for h in header[:2]] != ["leaf", "value"]:
            raise ValueError(f"{path}: expected header 'leaf,value'")
        for row in rows:
            if not row:
                continue
            leaf = int(row[0])
            if not 0 <= leaf < leaves:
                raise ValueError(f"{path}: leaf index {leaf} outside 0..{leaves - 1}")
            values[leaf] = float(row[1])
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: missing leaf values")
    return RandomVariable(values, lat.n_steps)


def var_nu_reference(a, htilde, nu):
    """Left quantile of the loss -htilde: the ``np.unique`` atoms walked from
    the largest down, one Python step per atom."""
    ht = np.atleast_1d(np.asarray(htilde, dtype=float))
    w = -ht
    uvals, inv = np.unique(w, return_inverse=True)
    umass = np.bincount(inv, weights=nu.intensity_array)
    above = 0.0
    quantile = uvals[-1]
    for k in range(len(uvals) - 1, -1, -1):
        if above <= a:
            quantile = uvals[k]
        else:
            break
        above += umass[k]
    return float(quantile)


def cvar_nu_reference(a, htilde, nu):
    """Tail average of the loss -htilde at level ``a``: the ``np.unique``
    atoms with ``bincount`` masses, walked from the largest down one Python
    step per atom."""
    ht = np.atleast_1d(np.asarray(htilde, dtype=float))
    w = -ht
    uvals, inv = np.unique(w, return_inverse=True)
    umass = np.bincount(inv, weights=nu.intensity_array)
    acc = 0.0
    mass_above = 0.0
    for k in range(len(uvals) - 1, -1, -1):
        upper = mass_above + umass[k]
        width = min(upper, a) - mass_above
        if width > 0:
            acc += uvals[k] * width
        mass_above = upper
        if mass_above >= a:
            break
    return float(acc / a)


def law_reference(lat, x, merge_tol=None):
    """Law of a payoff with a while loop over the sorted leaves: an atom
    grows while the next value is within ``merge_tol`` of the last one."""
    from devlat import Distribution

    p = lat.node_probabilities(x.level)
    order = np.argsort(x.values, kind="stable")
    v, w = x.values[order], p[order]
    if merge_tol is None:
        merge_tol = 1e-9 * float(v[-1] - v[0])
    atoms, probs = [], []
    i = 0
    while i < len(v):
        j = i + 1
        while j < len(v) and v[j] - v[j - 1] <= merge_tol:
            j += 1
        mass = float(w[i:j].sum())
        atoms.append(float(np.dot(v[i:j], w[i:j]) / mass))
        probs.append(mass)
        i = j
    return Distribution(np.array(atoms), np.array(probs))


def permute_paths_reference(lat, x, rng):
    """Probability-preserving path permutation, node by node: at every node
    each group of equal edge probability is shuffled by ``rng.permutation``."""
    from devlat import RandomVariable

    b = lat.branching
    sigma = np.zeros(1, dtype=np.int64)
    for i in range(lat.n_steps):
        probs = lat.step_probs(i)
        groups = [np.flatnonzero(probs == q) for q in np.unique(probs)]
        nxt = np.empty(len(sigma) * b, dtype=np.int64)
        for v in range(len(sigma)):
            pi = np.arange(b)
            for g in groups:
                pi[g] = g[rng.permutation(len(g))]
            nxt[v * b : (v + 1) * b] = sigma[v] * b + pi
        sigma = nxt
    return RandomVariable(x.values[sigma], x.level)


def _probe_points_reference(nu, d, sample_count, rng):
    m = nu.m
    pts = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = 1.0
        pts.append((e.copy(), np.zeros(m)))
        pts.append((-e, np.zeros(m)))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        pts.append((np.zeros(d), e.copy()))
        pts.append((np.zeros(d), -e))
    if m:
        marks = np.asarray(nu.marks, dtype=float)
        for c in range(marks.shape[1]):
            pts.append((np.zeros(d), marks[:, c].copy()))
    for _ in range(sample_count):
        pts.append((rng.normal(scale=2.0, size=d), rng.normal(scale=2.0, size=m)))
    return pts


def norm_cd_batch_by_linalg(spec, H, Ht, nu):
    """``NormCD``'s batch value and subgradient with ``np.linalg.norm``'s row
    norms, as they were written before the norms were inlined."""
    hn = np.linalg.norm(H, axis=1)
    wj = nu.intensity_array
    jn = np.sqrt((Ht * Ht) @ wj)
    value = spec.c * hn + spec.d * jn
    gh = np.divide(spec.c * H, hn[:, None], out=np.zeros_like(H), where=hn[:, None] > 0)
    gj = np.divide(spec.d * wj * Ht, jn[:, None], out=np.zeros_like(Ht),
                   where=jn[:, None] > 0)
    return value, np.hstack([gh, gj])


def check_driver_reference(spec, nu, sample_count=200, seed=0, d=1):
    """Sampled driver validity, one scalar ``eval_driver`` call per probe
    point, midpoint and pair end, stopping each loop at its first violation."""
    from devlat.drivers import CheckOutcome, ValidityReport, eval_driver, subgradient

    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    t = 0.0
    pts = _probe_points_reference(nu, d, sample_count, rng)

    def ev(p):
        return eval_driver(spec, t, p[0], p[1], nu)

    zero = (np.zeros(d), np.zeros(nu.m))
    v0 = ev(zero)
    zero_at_zero = CheckOutcome(v0 == 0.0, None if v0 == 0.0 else (zero, v0))

    nonneg = CheckOutcome(True)
    zero_only = CheckOutcome(True)
    for p in pts:
        v = ev(p)
        if v < 0 and nonneg.passed:
            nonneg = CheckOutcome(False, (p, v), detail="negative value off the origin")
        norm = float(np.linalg.norm(np.concatenate(p)))
        if norm >= 1e-6 and v <= 1e-15 and zero_only.passed:
            zero_only = CheckOutcome(False, (p, v), detail="vanishes away from the origin")

    convexity = CheckOutcome(True)
    for _ in range(sample_count):
        i, j = rng.integers(0, len(pts), size=2)
        x, y = pts[i], pts[j]
        mid = ((x[0] + y[0]) / 2.0, (x[1] + y[1]) / 2.0)
        lhs = ev(mid)
        rhs = 0.5 * (ev(x) + ev(y))
        if lhs > rhs + 1e-10 * max(1.0, abs(rhs)):
            convexity = CheckOutcome(False, (x, y, lhs, rhs), detail="midpoint rule violated")
            break

    subgrad = CheckOutcome(True)
    try:
        for _ in range(sample_count):
            i, j = rng.integers(0, len(pts), size=2)
            x, y = pts[i], pts[j]
            s = subgradient(spec, t, x[0], x[1], nu)
            gap = ev(y) - ev(x) - float(
                s @ np.concatenate([y[0] - x[0], y[1] - x[1]])
            )
            if gap < -1e-8:
                subgrad = CheckOutcome(False, (x, y, gap),
                                       detail="subgradient inequality violated")
                break
    except ValueError as exc:
        subgrad = CheckOutcome(True, vacuous=True, detail=f"skipped: {exc}")

    return ValidityReport(
        nonnegativity=nonneg,
        zero_at_zero=zero_at_zero,
        zero_only_at_zero=zero_only,
        convexity=convexity,
        subgradient_consistency=subgrad,
        samples_used=len(pts),
    )


def accumulate_reference(lat, node_values, lo=0):
    """``deviation._accumulate`` from a zero level: levels ``lo..hi`` of the
    backward sum of the values of steps ``lo..hi-1`` times dt, level ``hi``
    zeros spread from the last step's nodes, each level the expectation of
    the one after it plus its own values times dt."""
    hi = lo + len(node_values)
    vals = [None] * hi + [lat.spread(np.zeros(len(node_values[-1])))]
    for i in range(hi - 1, lo - 1, -1):
        vals[i] = lat.expect(i, vals[i + 1]) + node_values[i - lo] * lat.step_dt(i)
    return tuple(vals)


def evaluate_recursive_reference(lat, driver, pair, partition):
    """The block recursion with one whole-lattice ``represent`` + ``evaluate``
    pass per partition cell, the integrands outside the cell zeroed."""
    from devlat import AdaptedProcess, RandomVariable, RepresentingPair, assemble, \
        evaluate, martingale, represent

    def restrict(block, lo, hi):
        def keep(arrays):
            return tuple(a if lo <= i < hi else np.zeros_like(a)
                         for i, a in enumerate(arrays))

        return RepresentingPair(0.0, keep(block.H), keep(block.Htilde),
                                keep(block.residuals))

    part = sorted(set(int(i) for i in partition))
    mart = martingale(lat, assemble(lat, pair))
    total = [np.zeros(lat.num_nodes(i)) for i in range(lat.n_steps + 1)]
    for lo, hi in zip(part, part[1:]):
        base = np.repeat(mart.at(lo), lat.branching ** (hi - lo))
        increment = RandomVariable(mart.at(hi) - base, hi)
        block = evaluate(lat, driver, restrict(represent(lat, increment), lo, hi))
        for i in range(lat.n_steps + 1):
            total[i] = total[i] + block.at(i)
    return AdaptedProcess(tuple(total))


def axiom_report_reference(lat, driver, payoffs, seed=0, level=None, mixtures=50):
    """The axiom probe suite with one ``represent`` + ``evaluate`` pass per
    payoff probed, convexity mixtures included. After the translation and
    measurable draws it draws all mixture index pairs, then all weights, then
    the continuity noise, the partition and the locality mask."""
    from devlat import RandomVariable, evaluate, represent
    from devlat.deviation import AxiomReport, CheckOutcome

    def _dev_at(lat, driver, x, level):
        return evaluate(lat, driver, represent(lat, x)).at(level)

    if len(payoffs) < 2:
        raise ValueError("need at least two sample payoffs")
    rng = np.random.default_rng(seed)
    n = lat.n_steps
    t = n // 2 if level is None else level
    lat._check_level(t)
    nodes_t = lat.num_nodes(t)
    subtree = lat.branching ** (n - t)

    devs = [_dev_at(lat, driver, x, t) for x in payoffs]

    # translation: constant and F_t-measurable integer shifts leave D_t unchanged
    translation = CheckOutcome(True)
    for x, d in zip(payoffs, devs):
        const = float(rng.integers(1, 6))
        shift_t = rng.integers(-5, 6, size=nodes_t).astype(float)
        for m in (np.full(x.values.shape, const), np.repeat(shift_t, subtree)):
            d_shifted = _dev_at(lat, driver, RandomVariable(x.values + m, n), t)
            if not np.array_equal(d_shifted, d):
                gap = float(np.max(np.abs(d_shifted - d)))
                translation = CheckOutcome(False, {"max_abs_gap": gap})
                break
        if not translation.passed:
            break

    # positivity: D >= 0; zero exactly on subtree-measurable payoffs
    positivity = CheckOutcome(True)
    vacuous_only_if = True
    for x, d in zip(payoffs, devs):
        full = evaluate(lat, driver, represent(lat, x))
        if any(float(v.min()) < 0.0 for v in full.values):
            positivity = CheckOutcome(False, {"payoff_min": float(min(v.min() for v in full.values))})
            break
        zero_nodes = np.flatnonzero(d == 0.0)
        for v in zero_nodes:
            leaf_vals = x.values[v * subtree : (v + 1) * subtree]
            vacuous_only_if = False
            if float(leaf_vals.max() - leaf_vals.min()) != 0.0:
                positivity = CheckOutcome(False, {"node": int(v), "level": t},
                                          detail="zero deviation on a non-constant subtree")
                break
        if not positivity.passed:
            break
    if positivity.passed:
        measurable = RandomVariable(
            np.repeat(rng.integers(-5, 6, size=nodes_t).astype(float), subtree), n
        )
        if float(np.max(np.abs(_dev_at(lat, driver, measurable, t)))) != 0.0:
            positivity = CheckOutcome(False, detail="nonzero deviation of a measurable payoff")
        elif vacuous_only_if:
            positivity = CheckOutcome(True, vacuous=True,
                                      detail="only-if direction untriggered on constant-free samples")

    # conditional convexity over measurable mixtures; every weight is drawn
    # before the continuity noise, whichever mixture violates first
    convexity = CheckOutcome(True)
    index_pairs = rng.integers(0, len(payoffs), size=(mixtures, 2))
    weights = rng.uniform(size=(mixtures, nodes_t))
    for (i, j), lam_t in zip(index_pairs, weights):
        lam = np.repeat(lam_t, subtree)
        mix = RandomVariable(lam * payoffs[i].values + (1 - lam) * payoffs[j].values, n)
        lhs = _dev_at(lat, driver, mix, t)
        rhs = lam_t * devs[i] + (1 - lam_t) * devs[j]
        worst = float(np.max(lhs - rhs))
        if worst > 1e-10:
            convexity = CheckOutcome(False, {
                "payoffs": (int(i), int(j)),
                "lambda_level": lam_t.tolist(),
                "violation": worst,
            })
            break

    # continuity proxy: bounded response to small payoff perturbations
    continuity = CheckOutcome(True)
    x = payoffs[0]
    d_base = devs[0]
    noise = rng.normal(size=x.values.shape)
    interior = rng.permutation(np.arange(1, n))[: max(0, n // 2)]
    mask_t = rng.integers(0, 2, size=nodes_t).astype(float)
    scale = max(1.0, float(np.max(np.abs(x.values)))) * max(1.0, float(np.max(np.abs(noise))))
    for eps in (1e-3, 1e-5):
        d_pert = _dev_at(lat, driver, RandomVariable(x.values + eps * noise, n), t)
        resp = float(np.max(np.abs(d_pert - d_base)))
        if resp > 100.0 * eps * scale:
            continuity = CheckOutcome(False, {"eps": eps, "response": resp})
            break

    # recursion against the block evaluator on a random partition
    recursion = CheckOutcome(True)
    part = [0, n] + [int(v) for v in interior]
    pair0 = represent(lat, payoffs[0])
    direct = evaluate(lat, driver, pair0)
    rec = evaluate_recursive_reference(lat, driver, pair0, part)
    gap = max(
        float(np.max(np.abs(direct.at(i) - rec.at(i)))) for i in range(n + 1)
    )
    if gap > 1e-12:
        recursion = CheckOutcome(False, {"partition": sorted(part), "max_gap": gap})

    # local property on a random measurable set
    locality = CheckOutcome(True)
    mask = np.repeat(mask_t, subtree)
    glued = RandomVariable(mask * payoffs[0].values + (1 - mask) * payoffs[1].values, n)
    lhs = _dev_at(lat, driver, glued, t)
    rhs = mask_t * devs[0] + (1 - mask_t) * devs[1]
    worst = float(np.max(np.abs(lhs - rhs)))
    if worst > 1e-10:
        locality = CheckOutcome(False, {"mask_level": mask_t.tolist(), "max_gap": worst})

    return AxiomReport(translation, positivity, convexity, continuity,
                       recursion, locality, level=t, samples=mixtures, seed=seed)


def solve_sharing_per_level(lat, prob):
    """``solve_sharing`` one level at a time, as it ran before stacking: per
    level one split plan, one ``infconv_split`` and one ``certificate_gaps``
    call at that level's time. The stacked solve must give its bits."""
    from devlat import (AdaptedProcess, NumericError, RepresentingPair, SharingSolution,
                        assemble, infconv_split, proportional_share_factor, represent)
    from devlat.deviation import _accumulate, _levels
    from devlat.sharing import _unbounded, certificate_gaps

    cfg, nu = prob.solver, lat.noise.jumps
    g_a, g_b = prob.driver_a, prob.driver_b
    pair = represent(lat, prob.x_a + prob.x_b)
    max_res = pair.max_residual()
    if max_res > cfg.residual_tolerance:
        raise NumericError(f"representation residual {max_res:.3g}")
    levels = []
    for i in range(lat.n_steps):
        t, H, Ht = lat.times[i], pair.H[i], pair.Htilde[i]
        Z, Zt = infconv_split(g_a, g_b, t, H, Ht, nu, cfg)
        levels.append((Z, Zt, *certificate_gaps(g_a, g_b, t, H, Ht, Z, Zt, nu)))
    arg_H, arg_Ht, parts_a, parts_b, node_vals, gaps = zip(*levels)
    certificate_gap = float(np.max(np.concatenate(gaps)))
    unbounded = _unbounded(g_a, g_b, nu)
    attained = certificate_gap <= cfg.attain_tolerance and \
        bool(np.isfinite(np.concatenate(node_vals)).all()) and not unbounded
    infconv_d = AdaptedProcess(_accumulate(lat, node_vals))
    dev_a = float(_accumulate(lat, parts_a)[0][0])
    dev_b = float(_accumulate(lat, parts_b)[0][0])
    zero_res = tuple(np.zeros(lat.num_nodes(i)) for i in range(lat.n_steps))
    y_star = assemble(lat, RepresentingPair(0.0, arg_H, arg_Ht, zero_res))
    mart_a, levels_a = _levels(lat, g_a, prob.x_a.values, lat.n_steps)
    mart_b, levels_b = _levels(lat, g_b, prob.x_b.values, lat.n_steps)
    mean_a, mean_b = float(mart_a[0][0]), float(mart_b[0][0])
    d0_a, d0_b = float(levels_a[0][0]), float(levels_b[0][0])
    price = -mean_b - dev_b + d0_b
    return SharingSolution(
        argmin_H=arg_H, argmin_Ht=arg_Ht, y_star=y_star, y_tilde_star=y_star - prob.x_b,
        price=price, infconv_d=infconv_d, attained=attained, unbounded=unbounded,
        share_factor=proportional_share_factor(g_a, g_b), certificate_gap=certificate_gap,
        du_a=((mean_a + mean_b + price) - dev_a) - (mean_a - d0_a),
        du_b=(-price - dev_b) - (mean_b - d0_b),
        d0_a=d0_a, d0_b=d0_b, max_residual=max_res, total_pair=pair)


# -- test-only helpers ----------------------------------------------------------------
#
# Public once, but nothing outside the tests calls them.


def lift_analytic(ap, lat):
    """Broadcast deterministic step integrands to every node; mean zero."""
    from devlat import RepresentingPair
    from devlat.representation import _check_analytic

    _check_analytic(lat, ap)
    H, Ht, res = [], [], []
    for i in range(lat.n_steps):
        nodes = lat.num_nodes(i)
        H.append(np.tile(ap.h[i], (nodes, 1)))
        Ht.append(np.tile(ap.htilde[i], (nodes, 1)))
        res.append(np.zeros(nodes))
    return RepresentingPair(0.0, tuple(H), tuple(Ht), tuple(res))


def conditional_variance(lat, x):
    """Node-wise conditional variance via the total-variance recursion.

    Independent of the representation/driver route: variance at a node is the
    average of the children's variances plus the variance of the one-step
    conditional means.
    """
    from devlat import AdaptedProcess, martingale

    mart = martingale(lat, x)
    vals = [np.zeros(lat.num_nodes(lat.n_steps))]
    for i in range(lat.n_steps - 1, -1, -1):
        dm = lat.children(mart.at(i + 1)) - mart.at(i)[:, None]
        vals.insert(0, lat.expect(i, vals[0]) + (dm * dm) @ lat.step_probs(i))
    return AdaptedProcess(tuple(vals))


def cond_exp(lat, x, level):
    """Adapted process of E[x | F_level].

    Backward probability-weighted averaging below ``level``; subtree-constant
    broadcast above it. Feeding the result's ``as_random_variable()`` back in
    repeats the identical backward arithmetic, so the tower property holds
    bit-exactly.
    """
    from devlat import AdaptedProcess, martingale
    from devlat.lattice import _martingale_levels

    lat._check_level(level)
    cut = min(level, x.level)
    return AdaptedProcess(_martingale_levels(lat, martingale(lat, x).at(cut), cut),
                          measurable_level=cut)


def proportional_transfer(gamma_a, gamma_b, x_a, x_b):
    """Closed-form transfer for common-base scaled drivers:
    gamma_b/(gamma_a+gamma_b) * x_a - gamma_a/(gamma_a+gamma_b) * x_b."""
    from devlat.lattice import _check_positive

    _check_positive("risk tolerances", gamma_a, gamma_b)
    total = gamma_a + gamma_b
    return (gamma_b / total) * x_a - (gamma_a / total) * x_b


def utility(lat, x, dev, level):
    """Mean-minus-deviation evaluation E[x | F_level] - D_level."""
    from devlat import RandomVariable

    lat._check_level(level)
    ce = cond_exp(lat, x, level).at(level)
    d = dev.at(level)
    if ce.shape != d.shape:
        raise ValueError("payoff and deviation process live on different lattices")
    return RandomVariable(ce - d, level)


def constancy_spread(dev, level):
    """Max minus min of the deviation values across the nodes of one level."""
    v = dev.at(level)
    return float(v.max() - v.min())


class ResidualRiskReport(NamedTuple):
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


def residual_check_reference(sol, prob, nu, margin=1e-8):
    """Check that no agent with an origin-smooth driver is stripped of all
    risk, under the jump measure ``nu`` of the solve: shrinking finite
    differences decide each driver's origin-smoothness one scalar driver call
    at a time, then every node with a nonzero total integrand is classified
    in a loop as a corner (all risk to one side, within ``margin``) or
    interior."""
    from devlat.drivers import eval_driver

    def smooth(driver):
        dims = d + nu.m
        ratios = []
        for eps in (1e-4, 1e-5, 1e-6):
            worst = 0.0
            for i in range(dims):
                u = np.zeros(dims)
                u[i] = eps
                for sgn in (1.0, -1.0):
                    p = sgn * u
                    worst = max(worst, abs(eval_driver(driver, 0.0, p[:d], p[d:], nu)) / eps)
            ratios.append(worst)
        return ratios[-1] <= 1e-4 and ratios[-1] <= 0.5 * ratios[0] + 1e-12

    pair = sol.total_pair
    d = pair.H[0].shape[1]
    if not any(float(np.max(np.abs(np.hstack([pair.H[i], pair.Htilde[i]])))) > 1e-12
               for i in range(pair.n_steps)):
        return ResidualRiskReport(True, False, False, False, False, 0, 0, math.inf, math.inf,
                                  0, True)
    smooth_a, smooth_b = smooth(prob.driver_a), smooth(prob.driver_b)
    premise = smooth_a or smooth_b
    corner_share = corner_comp = checked = 0
    min_share = min_comp = math.inf
    interior = False
    for i in range(pair.n_steps):
        full = np.hstack([pair.H[i], pair.Htilde[i]])
        z = np.hstack([sol.argmin_H[i], sol.argmin_Ht[i]])
        for v in range(full.shape[0]):
            if float(np.linalg.norm(full[v])) <= 1e-9:
                continue
            checked += 1
            share = float(np.linalg.norm(z[v]))
            comp = float(np.linalg.norm(full[v] - z[v]))
            min_share = min(min_share, share)
            min_comp = min(min_comp, comp)
            if share <= margin:
                corner_share += 1
            elif comp <= margin:
                corner_comp += 1
            else:
                interior = True
    passed = interior if premise else True
    return ResidualRiskReport(False, smooth_a, smooth_b, premise, interior, corner_share,
                              corner_comp, min_share, min_comp, checked, passed)


def main_in_a_fresh_process(argv: list) -> subprocess.CompletedProcess:
    """``devlat.cli.main(argv)`` in a new interpreter, which fails the test if
    it hangs."""
    import devlat

    src = str(Path(devlat.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = "import sys; from devlat.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
