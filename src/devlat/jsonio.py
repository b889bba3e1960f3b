"""Deterministic JSON/CSV emission and ingestion for lattices and payoffs.

Floats are written through their shortest round-trip decimal form (at most 17
significant digits), keys are sorted, and rows are emitted in index order, so
identical inputs produce byte-identical artifacts.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .lattice import Lattice, RandomVariable
from .representation import RepresentingPair

__all__ = [
    "canonical_json",
    "lattice_to_dict",
    "pair_to_dict",
    "write_process_csv",
    "write_payoff_csv",
    "load_payoff_csv",
]


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError("non-finite float in JSON payload")
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=2) + "\n"


def lattice_to_dict(lat: Lattice) -> dict:
    """Full lattice description: grid, noise, and per-level node/edge tables."""
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


def pair_to_dict(pair: RepresentingPair) -> dict:
    """Representing pair as nested lists: per level, per node, H/Htilde/residual."""
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


def write_process_csv(path: Path, values_per_level) -> None:
    """Adapted-process dump with header level,node,value."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["level", "node", "value"])
        for level, vals in enumerate(values_per_level):
            for node, v in enumerate(vals):
                out.writerow([level, node, repr(float(v))])


def write_payoff_csv(path: Path, x: RandomVariable) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["leaf", "value"])
        for leaf, v in enumerate(x.values):
            out.writerow([leaf, repr(float(v))])


def load_payoff_csv(path: Path, lat: Lattice) -> RandomVariable:
    """Read a terminal payoff written as leaf,value rows (any leaf order)."""
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
