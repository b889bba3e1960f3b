"""Deterministic JSON/CSV emission and ingestion for lattices and payoffs.

Floats are written through their shortest round-trip decimal form
(``float.__repr__``), keys are sorted, and rows are emitted in index order, so
identical inputs produce byte-identical artifacts. The JSON layout is that of
``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are those of a default
``csv.writer`` (comma-separated, ``\\r\\n`` line ends).

Per-node artifacts are emitted one level at a time: a level's rows are
formatted by a single string template filled from its columns, never one
Python object per node. Within a long float column, each distinct bit pattern
is formatted once and its text reused for every cell that holds it.
"""

from __future__ import annotations

import math
from itertools import repeat
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


#: float columns shorter than this skip the bit-pattern sort and format each
#: cell on its own: below it ``np.unique`` costs about as much as the reprs
#: it saves (measured; see CHANGES.md)
DEDUP_MIN_CELLS = 64


def _cells(col: np.ndarray) -> list:
    """The cells of the (n,) array ``col``: Python ints, or floats whose
    ``%s`` is their repr.

    A float column of ``DEDUP_MIN_CELLS`` cells or more is returned as repr
    strings instead, with ``float.__repr__`` called once per distinct bit
    pattern. Patterns, not values: ``-0.0 == 0.0`` and ``NaN != NaN``, yet
    each pattern has exactly one repr.
    """
    if col.dtype.kind != "f" or col.shape[0] < DEDUP_MIN_CELLS:
        return col.tolist()
    bits, inverse = np.unique(col.astype(np.float64, copy=False).view(np.uint64),
                              return_inverse=True)
    text = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _interleave(columns, n: int) -> tuple:
    """Row-major cells of ``columns`` (each an (n,) or (n, k) array) as one
    flat tuple, for a row template with a ``%d`` slot per int cell and a
    ``%s`` slot per float cell. Each distinct bit pattern of a long float
    column is formatted once per column (see ``_cells``)."""
    cols = []
    for c in columns:
        cols.extend(c.T if c.ndim == 2 else [c])
    width = len(cols)
    flat: list = [None] * (n * width)
    for at, c in enumerate(cols):
        flat[at::width] = _cells(c)
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
                slot = "%s"
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
            row = prefix + "%d" + ",%s" * k + "\r\n"
            fh.write((row * n) % _interleave([np.arange(n), values], n))


def lattice_to_dict(lat: Lattice) -> dict:
    """Full lattice description: grid, noise, a ``ColumnTable`` of nodes per
    level and one of outcomes (dw, jump, prob) per step."""
    levels = range(lat.n_steps + 1)
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
        "levels": ColumnTable({"level": np.array(levels),
                               "nodes": np.array([lat.num_nodes(i) for i in levels])}),
        "edges": [
            ColumnTable({"dw": lat.step_dw(i), "jump": lat.outcome_labels,
                         "prob": lat.step_probs(i)})
            for i in range(lat.n_steps)
        ],
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
    """Read a terminal payoff written as leaf,value rows (any leaf order).

    Every row is one ``leaf,value`` pair of unquoted cells; blank lines are
    skipped, and each leaf must appear exactly once. All cells are parsed in
    one pass per column, then stored with one indexed assignment.
    """
    leaves = lat.num_nodes(lat.n_steps)
    with open(path) as fh:
        header = fh.readline()
        body = fh.read()
    if [h.strip() for h in header.rstrip("\n").split(",")[:2]] != ["leaf", "value"]:
        raise ValueError(f"{path}: expected header 'leaf,value'")
    rows = [row for row in body.split("\n") if row]
    if set(map(str.count, rows, repeat(","))) - {1}:
        raise ValueError(f"{path}: every row must be one 'leaf,value' pair")
    cells = ",".join(rows).split(",") if rows else []
    index = list(map(int, cells[0::2]))
    if index and (min(index) < 0 or max(index) >= leaves):
        first = next(k for k in index if not 0 <= k < leaves)
        raise ValueError(f"{path}: leaf index {first} outside 0..{leaves - 1}")
    leaf = np.array(index, dtype=np.int64)
    values = np.array(list(map(float, cells[1::2])))
    counts = np.bincount(leaf, minlength=leaves)
    if np.any(counts > 1):
        raise ValueError(
            f"{path}: leaf {int(np.argmax(counts > 1))} appears more than once")
    if np.any(counts == 0):
        raise ValueError(f"{path}: missing leaf values")
    out = np.empty(leaves)
    out[leaf] = values
    return RandomVariable(out, lat.n_steps)
