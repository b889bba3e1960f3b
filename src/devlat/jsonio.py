"""Deterministic JSON/CSV emission and ingestion for lattices and payoffs.

Floats are written through their shortest round-trip decimal form
(``float.__repr__``), keys are sorted, and rows are emitted in index order, so
identical inputs produce byte-identical artifacts. The JSON layout is that of
``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are those of a default
``csv.writer`` (comma-separated, ``\\r\\n`` line ends).

Each artifact (all ``ColumnTable``s of one ``canonical_json`` call, or one
CSV) is one ``_fold`` and one ``"".join``: each literal of a row is joined to
the cell before it once per distinct text, not once per row, so a row costs
one str per variable column, and tables of one row layout are folded as one.
The float cells share one dedup by bit pattern; the row numbers with the
literal after them, and each CSV row's ``level,node,`` text, are formatted
once per process. ``write_artifacts`` writes them all, 64 KiB at a time.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import stat
from itertools import accumulate, islice, repeat
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
    "process_csv",
    "payoff_csv",
    "write_artifacts",
    "write_process_csv",
    "write_payoff_csv",
    "load_payoff_csv",
]

_NON_FINITE = "non-finite float in JSON payload"

#: per suffix, or per (prefix, suffix) with a prefix, the texts of the row
#: numbers 0, 1, ... each between that prefix and suffix, read-only; each grown
#: to the largest number asked for with them and shared by every later artifact
_ROW_TEXTS: dict = {}
#: the text of each row number to its number, for the payoff reader; grown in
#: order to the most leaves read, so its first keys are the texts of 0, 1, ...
_ROW_NUMBERS: dict = {}
#: the texts of no rows, the table of a prefix and suffix not yet asked for
_NO_TEXTS = np.empty(0, dtype=object)
#: the characters ``_write_file`` encodes and writes at once
_CHUNK = 1 << 16


def _row_texts(rows: int, suffix: str, prefix: str = "") -> np.ndarray:
    """The texts of the row numbers 0..rows-1, each between ``prefix`` and
    ``suffix``, from ``_ROW_TEXTS``."""
    key = (prefix, suffix) if prefix else suffix
    table = _ROW_TEXTS.get(key, _NO_TEXTS)
    if len(table) < rows:
        table = np.array([*table, *(prefix + int.__repr__(k) + suffix
                                    for k in range(len(table), rows))], dtype=object)
        table.flags.writeable = False
        _ROW_TEXTS[key] = table
    return table[:rows]


def _int_texts(col: np.ndarray, suffix: str) -> np.ndarray:
    """The texts of the non-empty int array ``col``, each followed by
    ``suffix``; from ``_row_texts`` if ``col`` holds only numbers below its
    length (row numbers)."""
    top = int(col.max())
    if col.min() < 0 or top >= len(col):
        return np.array([int.__repr__(k) + suffix for k in col.tolist()], dtype=object)
    return _row_texts(top + 1, suffix)[col]


def _fold(tables: list, finite: bool = False) -> list[list]:
    """The text of each ``(n, pieces)`` of ``tables`` as strs to join: ``n``
    rows, each the concatenation of ``pieces``, where a str is a literal in
    every row and an (n,) int, float or object array holds each row's cell
    (an object array holds its cells' texts, used as they are, so no literal
    may follow it).

    Each literal is folded into the cell before it, and the literal a row
    starts with (its lead) into the previous row's last cell; so a row costs
    one str per array, and each literal is joined once per distinct text, not
    once per row. Tables of one layout (one lead, and one kind and literal
    after each cell) are stacked into one, whose rows are cut back into the
    tables at the end; a table of no rows, or of literals only, stands alone.
    The float cells of all ``tables`` share one dedup by bit pattern (``-0.0``
    and each NaN keep their own text): each pattern is formatted once and
    joined once to each literal that follows it; int cells come from
    ``_int_texts``. A table of rows starts with its lead; a table of none is
    ``[]``. With ``finite``, a NaN or infinity raises ``ValueError``.
    """
    rotated, layouts = [], {}  # each layout to the tables that have it
    for at, (n, pieces) in enumerate(tables):
        lead, cells = "", []
        for p in pieces if n else ():
            if isinstance(p, str):
                if cells:
                    cells[-1][1] += p
                else:
                    lead += p
            else:
                cells.append([p, ""])
        if cells:
            cells[-1][1] += lead
            layouts.setdefault((lead, *((c.dtype.kind, s) for c, s in cells)), []).append(at)
        rotated.append((n, lead, cells))
    stacked, floats = [], []
    for members in layouts.values():
        _, lead, cells = rotated[members[0]]
        if len(members) > 1:
            cells = [[np.concatenate([rotated[at][2][j][0] for at in members]), suffix]
                     for j, (_, suffix) in enumerate(cells)]
        stacked.append((lead, cells))
        for cell in cells:
            kind = cell[0].dtype.kind
            if kind == "f":
                floats.append(cell)
            elif kind != "O":
                cell[0] = _int_texts(*cell)
    bits = np.concatenate([np.empty(0), *(c for c, _ in floats)],
                          dtype=np.float64).view(np.uint64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    if finite and not np.isfinite(patterns.view(np.float64)).all():
        raise ValueError(_NON_FINITE)
    reprs = np.array([*map(float.__repr__, patterns.view(np.float64).tolist())],
                     dtype=object)
    ends = [*accumulate(c.size for c, _ in floats)]
    inverses = [inverse[start:end] for start, end in zip([0, *ends], ends)]
    used: dict = {}  # each suffix to the patterns it follows
    for (_, suffix), at in zip(floats, inverses):
        if suffix not in used:
            used[suffix] = np.zeros(len(reprs), dtype=bool)
        used[suffix][at] = True
    texts = {}
    for suffix, mask in used.items():
        texts[suffix] = np.empty(len(reprs), dtype=object)
        texts[suffix][mask] = reprs[mask] + suffix
    for cell, at in zip(floats, inverses):
        cell[0] = texts[cell[1]][at]
    out = [[lead * n] if n else [] for n, lead, _ in rotated]  # literals only, or no rows
    for (lead, cells), members in zip(stacked, layouts.values()):
        k = len(cells)
        flat = np.empty(1 + len(cells[0][0]) * k, dtype=object)
        grid = flat[1:].reshape(-1, k)
        for j, (cell, _) in enumerate(cells):
            grid[:, j] = cell
        flat = flat.tolist()
        start = 0
        for at in members:
            end = start + rotated[at][0] * k
            text = flat[start:end + 1]  # the row before's last cell, then the rows
            text[0] = lead
            text[-1] = text[-1][:len(text[-1]) - len(lead)]  # the last row has no next
            out[at] = text
            start = end
    return out


class ColumnTable:
    """A JSON list of ``n`` flat objects held as columns.

    ``columns`` maps each key to an (n,) array (a scalar per row) or an
    (n, k) array (a list of k per row). Integer columns print as ints, float
    columns as ``float.__repr__``. ``canonical_json`` renders it exactly as it
    would the equivalent list of dicts, as part of its artifact's ``_fold``.
    """

    def __init__(self, columns: dict):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = {k: np.asarray(v) for k, v in columns.items()}
        shapes = {v.shape[0] for v in self.columns.values()}
        if len(shapes) != 1:
            raise ValueError("table columns must have one row count")
        self.n = shapes.pop()

    def _pieces(self, nl: str) -> list:
        """One row of the table's JSON as ``_fold`` pieces, starting with the
        comma that separates it from the row before; ``nl`` as in ``_render``."""
        row_nl, cell_nl, item_nl = nl + "  ", nl + "    ", nl + "      "
        pieces: list = ["," + row_nl + "{"]
        for at, key in enumerate(sorted(self.columns)):
            col = self.columns[key]
            pieces.append("," * (at > 0) + cell_nl + encode_basestring_ascii(key) + ": ")
            if col.ndim == 1:
                pieces.append(col)
            elif col.shape[1] == 0:
                pieces.append("[]")
            else:
                for item, sep in zip(col.T, ["[", *repeat(",", col.shape[1] - 1)]):
                    pieces += [sep + item_nl, item]
                pieces.append(cell_nl + "]")
        pieces.append(row_nl + "}")
        return pieces


def _render(obj, nl: str, out: list) -> None:
    """Append the indent-2, sorted-key JSON of ``obj`` to ``out``; ``nl`` is
    the newline plus indentation of the line ``obj`` starts on."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        items = {str(k): v for k, v in obj.items()}
        if len(items) < len(obj):
            keys = [*map(str, obj)]
            key = next(k for at, k in enumerate(keys) if k in keys[:at])
            raise ValueError(f"two keys of one object render as {encode_basestring_ascii(key)}")
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
        out.append((obj, nl))  # rendered by canonical_json with the others
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
    raises ``ValueError``. All tables of ``obj`` form one text table.
    """
    out: list = []
    _render(obj, "\n", out)
    out.append("\n")
    tables = [item for item in out if isinstance(item, tuple)]
    if not tables:
        return "".join(out)
    if bad := [c.dtype for t, _ in tables for c in t.columns.values()
               if c.dtype.kind not in "iuf"]:
        raise TypeError(f"cannot serialise a {bad[0]} column")
    texts, parts = iter(_fold([(t.n, t._pieces(nl)) for t, nl in tables], finite=True)), []
    for item in out:
        if isinstance(item, str):
            parts.append(item)
        elif text := next(texts):
            text[0] = "[" + text[0][1:]  # the first row follows no other
            parts += text
            parts.append(item[1] + "]")
        else:
            parts.append("[]")
    return "".join(parts)


def _csv(header: list[str], first: np.ndarray, columns: list) -> str:
    """CSV text (a default ``csv.writer``'s bytes, ``repr(float)`` cells) with
    ``header`` and one row per text of ``first``, each row's leading cells
    and the comma after them (or its ``\r\n``, if ``columns`` is empty),
    then a cell of each (n,) float array of ``columns``."""
    pieces = [first]
    for col in columns:
        pieces += [col, ","]
    if columns:
        pieces[-1] = "\r\n"
    (rows,) = _fold([(len(first), pieces)])
    return "".join([",".join(header) + "\r\n", *rows])


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


def process_csv(values_per_level, columns=("value",)) -> str:
    """Per-node dump with header level,node,<columns>: one row per node, in
    level then node order. Each level's values are (nodes,) for one column,
    or (nodes, len(columns)). Each row's ``level,node,`` text comes from one
    ``_row_texts`` table per level."""
    values = [np.asarray(vals, dtype=float).reshape(len(vals), len(columns))
              for vals in values_per_level]
    end = "," if columns else "\r\n"
    first = np.concatenate([_NO_TEXTS, *(_row_texts(len(v), end, f"{i},")
                                         for i, v in enumerate(values))])
    cells = np.concatenate([np.empty((0, len(columns))), *values])
    return _csv(["level", "node", *columns], first, [*cells.T])


def payoff_csv(x: RandomVariable) -> str:
    """Terminal payoff dump with header leaf,value."""
    values = np.asarray(x.values, dtype=float)
    return _csv(["leaf", "value"], _row_texts(len(values), ","), [values])


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8: a regular file with one link is
    rewritten in place and cut to length, never to zero (ext4's
    ``auto_da_alloc`` would start writeback at close); anything else there is
    replaced by a new file. An ASCII text is encoded ``_CHUNK`` characters at
    a time, so no copy of a whole artifact is made; any other is encoded
    whole before the file is opened, so one that cannot be encoded (a lone
    surrogate) raises and leaves the file as it was."""
    data = text if text.isascii() else memoryview(text.encode("utf-8"))
    try:  # O_NONBLOCK: a FIFO with no reader fails (ENXIO) instead of blocking
        fd = os.open(path, os.O_WRONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:  # no file, a symlink, or none that opens for writing
        fd = None
    else:  # the file checked is the file written, whatever the path names later
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode) or st.st_nlink != 1:
            os.close(fd)
            fd = None
    if fd is None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        for start in range(0, len(data), _CHUNK):
            view = data[start:start + _CHUNK]
            view = memoryview(view.encode("ascii") if isinstance(view, str) else view)
            while view:
                view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_artifacts(artifacts: list) -> None:
    """Write each ``(path, text)`` as UTF-8 by ``_write_file``; a directory at
    any path raises first. No fsync. An ``OSError`` names its path."""
    for path, _ in artifacts:
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for path, text in artifacts:
        try:
            _write_file(path, text)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc


def write_process_csv(path: Path, values_per_level, columns=("value",)) -> None:
    """``process_csv`` written to ``path`` by ``write_artifacts``."""
    write_artifacts([(path, process_csv(values_per_level, columns))])


def write_payoff_csv(path: Path, x: RandomVariable) -> None:
    """``payoff_csv`` written to ``path`` by ``write_artifacts``."""
    write_artifacts([(path, payoff_csv(x))])


def load_payoff_csv(path: Path, lat: Lattice) -> RandomVariable:
    """Read a terminal payoff written as leaf,value rows (any leaf order).

    Every row is one ``leaf,value`` pair of unquoted cells; blank lines are
    skipped, and each leaf must appear exactly once. One numpy pass over the
    body's bytes checks the row shape (a comma and a newline are one byte
    each in UTF-8; with the newlines that end blank lines dropped, commas and
    newlines alternate, starting with a comma), and one ``str.split`` gives
    the cells. Leaf texts that are the row numbers in order, as
    ``payoff_csv`` writes them, are proved by one list comparison with the
    first keys of ``_ROW_NUMBERS``, and the values parsed are the payoff.
    Otherwise each leaf text is looked up in ``_ROW_NUMBERS``, only another
    spelling (``+3``, ``03``) goes through ``int``, and the values are
    stored with one indexed assignment. If the first 64 value texts repeat
    one, each distinct text is parsed once (a payoff on the tree often takes
    few values; hashing every text would slow a payoff that does not).
    """
    leaves = lat.num_nodes(lat.n_steps)
    with open(path) as fh:
        header = fh.readline()
        body = fh.read()
    if [h.strip() for h in header.rstrip("\n").split(",")[:2]] != ["leaf", "value"]:
        raise ValueError(f"{path}: expected header 'leaf,value'")
    if body and body[-1] != "\n":
        body += "\n"
    raw = np.frombuffer(body.encode(), np.uint8)
    ends = raw == 10  # the line ends, less those of blank lines:
    ends[1:] &= raw[:-1] != 10  # a newline after a newline,
    ends[:1] = False  # or one that starts the body
    seps = raw[ends | (raw == 44)]
    if not ((seps[0::2] == 44).all() and (seps[1::2] == 10).all()):
        raise ValueError(f"{path}: every row must be one 'leaf,value' pair")
    if body.count("\n") > len(seps) // 2:  # blank lines, dropped
        body = "".join(row + "\n" for row in body.split("\n") if row)
    cells = body.replace("\n", ",").split(",")[:-1]
    leaf_texts, texts = cells[0::2], cells[1::2]
    known = len(_ROW_NUMBERS)
    _ROW_NUMBERS.update(zip(map(int.__repr__, range(known, leaves)), range(known, leaves)))
    # the row numbers in order: each leaf once, so no lookup, check or scatter
    in_order = leaf_texts == [*islice(_ROW_NUMBERS, leaves)]
    if not in_order:
        try:
            index = list(map(_ROW_NUMBERS.__getitem__, leaf_texts))
        except KeyError:  # another spelling, such as "+3", "03" or "-1"
            index = [_ROW_NUMBERS[t] if t in _ROW_NUMBERS else int(t) for t in leaf_texts]
        if index and (min(index) < 0 or max(index) >= leaves):
            first = next(k for k in index if not 0 <= k < leaves)
            raise ValueError(f"{path}: leaf index {first} outside 0..{leaves - 1}")
    head = texts[:64]  # a repeat among the first texts marks a payoff of few values
    parse = float if len(set(head)) == len(head) else \
        {t: float(t) for t in dict.fromkeys(texts)}.__getitem__
    values = np.fromiter(map(parse, texts), float, len(texts))
    if in_order:
        return RandomVariable(values, lat.n_steps)
    leaf = np.array(index, dtype=np.int64)
    counts = np.bincount(leaf, minlength=leaves)
    if np.any(counts > 1):
        raise ValueError(
            f"{path}: leaf {int(np.argmax(counts > 1))} appears more than once")
    if np.any(counts == 0):
        raise ValueError(f"{path}: missing leaf values")
    out = np.empty(leaves)
    out[leaf] = values
    return RandomVariable(out, lat.n_steps)
