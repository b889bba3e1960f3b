"""Deterministic JSON/CSV emission and ingestion for lattices and payoffs.

Floats are written through their shortest round-trip decimal form
(``float.__repr__``), keys are sorted, and rows are emitted in index order, so
identical inputs produce byte-identical artifacts. The JSON layout is that of
``json.dumps(..., sort_keys=True, indent=2)``; CSV rows are those of a default
``csv.writer`` (comma-separated, ``\\r\\n`` line ends).

Each artifact (all ``ColumnTable``s of one ``canonical_json`` call, or one
CSV) is rendered by ``_fill`` from a text skeleton of its tables: every
literal, every int text and each CSV row's ``level,node,`` text in row order,
each literal joined to the cell before it, with a slot for each float cell.
The first render of a layout (its literals and column kinds, row counts and
int columns' bytes) builds the skeleton, and later renders reuse it; at most
``_SKELETON_CAP`` are kept. A render forms only its float cells: one sort of
their bit patterns, one ``float.__repr__`` per distinct pattern, joined once
to each literal that follows it, then one ``"".join``. ``write_artifacts``
writes the texts, 64 KiB at a time.
"""

from __future__ import annotations

import codecs
import contextlib
import errno
import io
import math
import os
import stat
from itertools import islice, repeat
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
#: to the largest number asked for with them and shared by every later skeleton
_ROW_TEXTS: dict = {}
#: the text of each row number to its number, for the payoff reader; grown in
#: order to the most leaves read, so its first keys are the texts of 0, 1, ...
_ROW_NUMBERS: dict = {}
#: the texts of no rows, the table of a prefix and suffix not yet asked for
_NO_TEXTS = np.empty(0, dtype=object)
#: the most artifact layouts whose skeletons are kept; a new one past it
#: drops the oldest
_SKELETON_CAP = 8
#: each layout key of ``_fill`` to its ``_skeleton``, oldest first
_SKELETONS: dict = {}
#: the decoder of the payoff reader, UTF-8 as ``write_artifacts`` writes
_UTF8 = codecs.getincrementaldecoder("utf-8")
#: the characters ``_write_file`` encodes and writes at once
_CHUNK = 1 << 16


def _row_texts(rows: int, suffix: str, prefix: str = "") -> np.ndarray:
    """The texts of the row numbers 0..rows-1, each between ``prefix`` and
    ``suffix``, from ``_ROW_TEXTS``."""
    key = (prefix, suffix) if prefix else suffix
    table = _ROW_TEXTS.get(key, _NO_TEXTS)
    if len(table) < rows:
        table = np.array([*table, *[f"{prefix}{k}{suffix}" for k in range(len(table), rows)]],
                         dtype=object)
        table.flags.writeable = False
        _ROW_TEXTS[key] = table
    return table[:rows]


def _int_texts(col: np.ndarray, suffix: str) -> np.ndarray:
    """The texts of the non-empty int array ``col``, each followed by
    ``suffix``; from ``_row_texts`` if ``col`` holds only numbers below its
    length (row numbers)."""
    top = int(col.max())
    if col.min() < 0 or top >= len(col):
        return np.array([f"{k}{suffix}" for k in col.tolist()], dtype=object)
    return _row_texts(top + 1, suffix)[col]


def _skeleton(tables: list) -> tuple:
    """The skeleton of ``tables`` (as ``_fill`` takes them): ``(texts, gaps,
    columns, suffix_of, suffixes)``. ``texts`` is every fixed text in order,
    with None in the gap before each table, the gap after the last and each
    float slot; ``gaps`` indexes the gaps. ``columns`` holds each float
    column's ``(slots, start, stop)``: the slice of ``texts`` that float cells
    ``start..stop-1`` fill. Float cell ``i`` is followed by
    ``suffixes[suffix_of[i]]`` (an object array of the distinct literals).

    Each literal of a row is joined to the cell before it, and the literals a
    row starts with, after the separator, to the previous row's last cell; a
    table's first literals stand alone. So a row holds one text per cell: an
    int cell's from ``_int_texts`` or ``_row_texts``, a float cell's a slot.
    A table of no rows has no text, one of literals only one text."""
    texts, gaps, columns, suffix_of, suffixes = [None], [0], [], [], {}
    floats = 0  # the float cells so far
    for n, sep, pieces in tables:
        lead, cells = "", []
        for p in pieces if n else ():
            if isinstance(p, str):
                if cells:
                    cells[-1][1] += p
                else:
                    lead += p
            else:
                cells.append([p, ""])
        if not cells:
            texts += [sep.join(repeat(lead, n))] if n else []
        else:
            last = cells[-1][1]  # the last row's last literal: no row follows
            cells[-1][1] += sep + lead
            k, at = len(cells), len(texts) + 1
            rows = [None] * (n * k)
            for j, (cell, suffix) in enumerate(cells):
                if isinstance(cell, tuple):
                    rows[j::k] = _row_texts(n, suffix, *cell).tolist()
                elif cell.dtype.kind != "f":
                    rows[j::k] = _int_texts(cell, suffix).tolist()
                else:
                    columns.append((slice(at + j, at + n * k, k), floats, floats + n))
                    floats += n
                    suffix_of.append(np.full(n, suffixes.setdefault(suffix, len(suffixes))))
                    if j == k - 1:
                        suffix_of[-1][-1] = suffixes.setdefault(last, len(suffixes))
            if rows[-1] is not None:  # an int cell ends the row
                rows[-1] = rows[-1][:len(rows[-1]) - len(sep + lead)]
            texts += [lead, *rows]
        gaps.append(len(texts))
        texts.append(None)
    return (texts, gaps, columns, np.concatenate([np.empty(0, dtype=np.intp), *suffix_of]),
            np.array([*suffixes], dtype=object))


def _fill(gaps: list, tables: list, finite: bool = False) -> list[str]:
    """The strs to join for ``gaps[0]``, the text of the first of ``tables``,
    ``gaps[1]`` and so on to ``gaps[-1]``. Each ``(n, sep, pieces)`` of
    ``tables`` is ``n`` rows joined by ``sep``, each row the concatenation of
    ``pieces``: a str is a literal in every row, a 1-tuple ``(prefix,)`` each
    row's number after ``prefix``, and an (n,) int or float array each row's
    cell. The caller joins the strs once this call's temporaries are freed:
    with the artifact's one large allocation made above them in the heap,
    glibc's malloc handed that memory back to the OS after every render and
    faulted it in again at the next (112 minor faults per ``dev-wide`` job,
    glibc 2.36).

    The tables' ``_skeleton`` is kept in ``_SKELETONS`` under their layout
    (each table's row count, separator, literals and row-number prefixes,
    with None for each array; then the arrays' dtypes) and the bytes of
    their int columns. A render fills its float slots: the cells' bit
    patterns are sorted once and deduplicated (``-0.0`` and each NaN keep
    their own text), and each pattern is formatted once. A cell's text is
    its pattern's joined to the literal that follows it, by the fewer joins:
    each pattern to every literal, used with it or not, when that is at most
    one join per cell, and else one join per cell. With ``finite``, a NaN or
    infinity raises ``ValueError``.
    """
    layout, dtypes, ints, floats = [], [], [], []
    for n, sep, pieces in tables:
        row = [n, sep]
        for p in pieces:
            if isinstance(p, np.ndarray):
                row.append(None)
                dtypes.append(p.dtype)
                (floats if p.dtype.kind == "f" else ints).append(p)
            else:
                row.append(p)
        layout.append(tuple(row))
    key = (*layout, *dtypes, b"".join([c.tobytes() for c in ints]))
    skeleton = _SKELETONS.get(key)
    if skeleton is None:
        if len(_SKELETONS) >= _SKELETON_CAP:
            _SKELETONS.pop(next(iter(_SKELETONS)), None)
        skeleton = _SKELETONS[key] = _skeleton(tables)
    texts, at_gaps, columns, suffix_of, suffixes = skeleton
    out = texts.copy()
    for at, text in zip(at_gaps, gaps):
        out[at] = text
    if columns:  # a float cell to fill
        bits = np.concatenate(floats, dtype=np.float64).view(np.uint64)
        ordered = np.sort(bits)
        first = np.empty(len(bits), dtype=bool)  # the first of each run of one pattern
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        patterns = ordered[first]
        if finite and not np.isfinite(patterns.view(np.float64)).all():
            raise ValueError(_NON_FINITE)
        pattern_of = np.searchsorted(patterns, bits)
        reprs = np.array([*map(float.__repr__, patterns.view(np.float64).tolist())],
                         dtype=object)
        if len(suffixes) * len(patterns) <= len(bits):  # every (suffix, pattern) pair
            joined = (reprs + suffixes[:, None]).ravel()
            cells = joined[suffix_of * len(patterns) + pattern_of].tolist()
        else:  # every cell
            cells = (reprs[pattern_of] + suffixes[suffix_of]).tolist()
        for slots, start, stop in columns:
            out[slots] = cells[start:stop]
    return out


class ColumnTable:
    """A JSON list of ``n`` flat objects held as columns.

    ``columns`` maps each key to an (n,) array (a scalar per row) or an
    (n, k) array (a list of k per row). Integer columns print as ints, float
    columns as ``float.__repr__``. ``canonical_json`` renders it exactly as it
    would the equivalent list of dicts, as one of its artifact's ``_fill`` tables.
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
        """One row of the table's JSON as ``_fill`` pieces; ``nl`` as in
        ``_render``."""
        row_nl, cell_nl, item_nl = nl + "  ", nl + "    ", nl + "      "
        pieces: list = [row_nl + "{"]
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
    raises ``ValueError``. The tables of ``obj`` are rendered by one ``_fill``.
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
    gaps, run, rows = [], [], []  # the texts between the tables of rows
    for item in out:
        if isinstance(item, str):
            run.append(item)
        elif item[0].n:
            gaps.append("".join([*run, "["]))
            run = [item[1] + "]"]
            rows.append((item[0].n, ",", item[0]._pieces(item[1])))
        else:
            run.append("[]")
    return "".join(_fill([*gaps, "".join(run)], rows, finite=True))


def _csv(header: list[str], tables: list) -> str:
    """CSV text (a default ``csv.writer``'s bytes, ``repr(float)`` cells):
    ``header``, then the rows of ``tables`` as ``_fill`` takes them."""
    return "".join(_fill([",".join(header) + "\r\n", *repeat("", len(tables))], tables))


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
    or (nodes, len(columns)). Each level is one table, whose rows start with
    their ``level,node,`` text."""
    tables = []
    for i, vals in enumerate(values_per_level):
        cells = np.asarray(vals, dtype=float).reshape(len(vals), len(columns))
        pieces: list = [(f"{i},",)]
        for col in cells.T:
            pieces += [",", col]
        tables.append((len(cells), "", [*pieces, "\r\n"]))
    return _csv(["level", "node", *columns], tables)


def payoff_csv(x: RandomVariable) -> str:
    """Terminal payoff dump with header leaf,value."""
    values = np.asarray(x.values, dtype=float)
    return _csv(["leaf", "value"], [(len(values), "", [("",), ",", values, "\r\n"])])


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

    The file's bytes are read at once and decoded once as UTF-8, the
    encoding ``write_artifacts`` writes; ``\\r\\n`` and a lone ``\\r`` end a
    line as ``\\n`` does, as in a text-mode read. Every row is one
    ``leaf,value`` pair of unquoted cells; blank lines are
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
    with open(path, "rb") as fh:
        data = fh.read()
    # text mode's decoder, in one call: each \r\n and lone \r read as \n
    text = io.IncrementalNewlineDecoder(_UTF8(), translate=True).decode(data, final=True)
    header, _, body = text.partition("\n")
    if [h.strip() for h in header.split(",")[:2]] != ["leaf", "value"]:
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
