"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes quantities from definitions (path enumeration,
candidate scans, finite differences) without touching the production code
paths it is used to check.
"""

from __future__ import annotations

import itertools

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
