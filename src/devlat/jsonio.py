"""Deterministic JSON/CSV emission and ingestion for lattices and payoffs.

Floats are written through their shortest round-trip decimal form
(``float.__repr__``), keys are sorted, and rows are emitted in index order, so
identical inputs produce byte-identical artifacts. The JSON layout is that of
``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are those of a default
``csv.writer`` (comma-separated, ``\\r\\n`` line ends).

Per-node artifacts are emitted one level at a time: a level's rows are
formatted by a single string template filled from its columns, never one
Python object per node.
"""

from __future__ import annotations

import csv
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .lattice import Lattice, RandomVariable
from .representation import RepresentingPair

__all__ = [
    "ColumnTable",
    "canonical_json",
    "lattice_to_dict",
    "pair_to_dict",
    "write_process_csv",
    "write_payoff_csv",
    "load_payoff_csv",
]

_NON_FINITE = "non-finite float in JSON payload"


def _interleave(columns, n: int) -> tuple:
    """Row-major cells of ``columns`` (each an (n,) or (n, k) array) as one
    flat tuple of Python ints and floats."""
    cols = []
    for c in columns:
        cols.extend(c.T if c.ndim == 2 else [c])
    width = len(cols)
    flat: list = [None] * (n * width)
    for at, c in enumerate(cols):
        flat[at::width] = c.tolist()
    return tuple(flat)


class ColumnTable:
    """A JSON list of ``n`` flat objects held as columns.

    ``columns`` maps each key to an (n,) array (a scalar per row) or an
    (n, k) array (a list of k per row). Integer columns print as ints, float
    columns as ``float.__repr__``. ``canonical_json`` renders it exactly as it
    would the equivalent list of dicts, with one template per table.
    """

    def __init__(self, columns: dict):
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        shapes = {v.shape[0] for v in self.columns.values()}
        if len(shapes) != 1:
            raise ValueError("table columns must have one row count")
        self.n = shapes.pop()

    def _json(self, nl: str) -> str:
        """The table's JSON text; ``nl`` as in ``_render``."""
        if self.n == 0:
            return "[]"
        row_nl, cell_nl, item_nl = nl + "  ", nl + "    ", nl + "      "
        fields, cols = [], []
        for key in sorted(self.columns):
            col = self.columns[key]
            if col.dtype.kind in "iu":
                slot = "%d"
            elif col.dtype.kind == "f":
                if not np.isfinite(col).all():
                    raise ValueError(_NON_FINITE)
                slot = "%r"
            else:
                raise TypeError(f"cannot serialise a {col.dtype} column")
            if col.ndim == 1:
                value = slot
            elif col.shape[1] == 0:
                value = "[]"
            else:
                value = "[" + item_nl + ("," + item_nl).join([slot] * col.shape[1]) \
                    + cell_nl + "]"
            fields.append(cell_nl + encode_basestring_ascii(key).replace("%", "%%")
                          + ": " + value)
            cols.append(col)
        row = row_nl + "{" + ",".join(fields) + row_nl + "}"
        return "[" + ",".join([row] * self.n) % _interleave(cols, self.n) + nl + "]"


def _render(obj, nl: str, out: list) -> None:
    """Append the indent-2, sorted-key JSON of ``obj`` to ``out``; ``nl`` is
    the newline plus indentation of the line ``obj`` starts on."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        items = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _render(items[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _render(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, (np.floating, float)):
        f = float(obj)
        if not math.isfinite(f):
            raise ValueError(_NON_FINITE)
        out.append(float.__repr__(f))
    elif isinstance(obj, np.integer):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), nl, out)
    elif isinstance(obj, ColumnTable):
        out.append(obj._json(nl))
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


def canonical_json(obj) -> str:
    """``obj`` as indent-2 JSON with sorted keys and a trailing newline.

    Accepts dicts (keys are stringified), lists, tuples, numpy arrays and
    scalars, strings, bools, None and ``ColumnTable``s; a NaN or infinity
    raises ``ValueError``.
    """
    out: list[str] = []
    _render(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_rows(path: Path, header: list[str], blocks) -> None:
    """CSV file with ``header`` and, for each block ``(prefix, values)``, one
    row ``<prefix><row number>,<repr of each value>`` per row of the (n, k)
    float array ``values``; ``prefix`` is literal text (e.g. ``"3,"``).

    The bytes are those of a default ``csv.writer`` given ``repr(float)``
    cells; NaN and infinities are written as ``nan``/``inf``. One template
    fill per block.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for prefix, values in blocks:
            n, k = values.shape
            row = prefix + "%d" + ",%r" * k + "\r\n"
            fh.write((row * n) % _interleave([np.arange(n), values], n))


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
    """Representing pair per level: the mean, and each level's nodes as a
    ``ColumnTable`` with keys node, H, Htilde and residual."""
    return {
        "mean": pair.mean,
        "levels": [
            {
                "level": i,
                "nodes": ColumnTable({
                    "node": np.arange(pair.H[i].shape[0]),
                    "H": pair.H[i],
                    "Htilde": pair.Htilde[i],
                    "residual": pair.residuals[i],
                }),
            }
            for i in range(pair.n_steps)
        ],
    }


def write_process_csv(path: Path, values_per_level, columns=("value",)) -> None:
    """Per-node dump with header level,node,<columns>: one row per node, in
    level then node order. Each level's values are (nodes,) for one column,
    or (nodes, len(columns))."""
    _write_rows(path, ["level", "node", *columns], (
        (f"{level},", np.asarray(vals, dtype=float).reshape(len(vals), len(columns)))
        for level, vals in enumerate(values_per_level)
    ))


def write_payoff_csv(path: Path, x: RandomVariable) -> None:
    """Terminal payoff dump with header leaf,value."""
    values = np.asarray(x.values, dtype=float)
    _write_rows(path, ["leaf", "value"], [("", values.reshape(len(values), 1))])


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
