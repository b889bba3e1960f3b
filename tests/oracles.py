"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities from definitions (path enumeration,
candidate scans, finite differences) without touching the production code
paths it is used to check. The artifact references at the end are the
node-by-node JSON and CSV writers the level-batched emitters must match byte
for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

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


def process_csv_reference(path, values_per_level):
    """level,node,value rows through csv.writer, one node at a time."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["level", "node", "value"])
        for level, vals in enumerate(values_per_level):
            for node, v in enumerate(vals):
                out.writerow([level, node, repr(float(v))])


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
