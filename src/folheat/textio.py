"""Readers and writers for the package's file formats: whitespace tokens
(mesh, checkpoint header), ``.npy`` array records (checkpoint arrays,
sample sets) and CSV tables (fields, conductivity, errors,
post-processing).

Token comments run from ``#`` to end of line. Tokens may wrap across lines;
a parse error names the line of the offending token.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import MeshFormatError, ValidationError, number

_DTYPES = {int: np.int64, float: np.float64}

RECORD_HEADER = 1 << 12  # bytes at most of an .npy record's header


@contextmanager
def decoding(source):
    """Raise a UnicodeDecodeError of the block as a ValidationError naming source."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{source}: not valid {exc.encoding} text ({exc.reason})") from None


def read_text(path) -> str:
    """``Path(path).read_text()``; bytes that do not decode are a ValidationError."""
    with decoding(path):
        return Path(path).read_text()


def write_record(f, array, dtype: str) -> None:
    """Write array to the binary file f as one ``.npy`` record (version 1.0,
    no pickle) of dtype, a type string such as ``"<f8"``, in C order."""
    npy.write_array(f, np.ascontiguousarray(array, dtype), version=(1, 0), allow_pickle=False)


def read_record(f, source, what: str, dtype: str, shape) -> np.ndarray:
    """The next ``.npy`` record (version 1.0) of the binary file f, as a fresh
    array that must be of dtype (e.g. ``"<f8"``) and exactly ``shape``, in C
    order. Its header is read within ``RECORD_HEADER`` bytes and checked, and
    its data must fit in the rest of the file, before any data is read; a
    record that fails is a ValidationError naming source and what."""
    start = f.tell()
    head = io.BytesIO(f.read(RECORD_HEADER))
    try:
        if (version := npy.read_magic(head)) != (1, 0):
            raise ValueError(f"format version {version}, expected (1, 0)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. that numpy had to filter a Python 2 header
            got, fortran, got_dtype = npy.read_array_header_1_0(head)
    except Exception as exc:  # noqa: BLE001 - numpy's parse of bad bytes raises many kinds
        raise ValidationError(f"{source}: not a readable .npy array ({what}): {exc}") from None
    if fortran or got_dtype != np.dtype(dtype) or got != tuple(shape) or min(got, default=0) < 0:
        raise ValidationError(f"{source}: {what} is a {'Fortran-order ' * fortran}{got_dtype.str} "
                              f"array of shape {got}, expected {dtype} of shape {tuple(shape)}")
    f.seek(start + head.tell())
    nbytes, left = math.prod(got) * got_dtype.itemsize, os.fstat(f.fileno()).st_size - f.tell()
    if nbytes > left:
        raise ValidationError(f"{source}: {what} needs {nbytes} bytes, the file has {left} left")
    out = np.empty(got, got_dtype)
    if f.readinto(out) != nbytes:
        raise ValidationError(f"{source}: {what} ends before its {nbytes} bytes")
    return out


class TokenReader:
    """The whitespace tokens of a text, read front to back; numbers convert with
    ``int`` or a finite ``float``, by ``errors.number``. Errors name ``source``
    and the token's line."""

    def __init__(self, text: str, *, error_cls=MeshFormatError, source: str | None = None):
        if "#" in text:
            text = "\n".join([line.split("#", 1)[0] for line in text.splitlines()])
        self._text = text
        self._tokens = text.split()
        self._pos = 0  # the index of the next token
        self._error_cls = error_cls
        self._source = f"{source}: " if source else ""

    def fail(self, message: str, index: int | None = None):
        """Raise an error at the line of a token index, by default that of the
        last token read."""
        line_ends = list(accumulate(len(line.split()) for line in self._text.splitlines()))
        lineno = bisect_right(line_ends, self._pos - 1 if index is None else index) + 1
        raise self._error_cls(f"{self._source}line {lineno}: {message}")

    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)

    def _take(self, n: int, what: str) -> list[str]:
        """The next n tokens; a negative n or a short text is refused first."""
        if n < 0:
            self.fail(f"negative {what} count {n}")
        if self._pos + n > len(self._tokens):
            self.fail(f"unexpected end of file, expected {what}", len(self._tokens) - 1)
        self._pos += n
        return self._tokens[self._pos - n : self._pos]

    def next_token(self, what: str, kind=str):
        """The next token, as a str or converted by kind (int or float)."""
        if kind is str:
            return self._take(1, what)[0]
        return self.next_block(1, (what, kind))[0].item()

    def next_keyed(self, word: str, kind=str):
        """The value of a ``word value`` pair."""
        self.expect(word)
        return self.next_token(word, kind)

    def next_block(self, n_rows: int, *columns) -> list[np.ndarray]:
        """The next n_rows rows of one token per column, as one array per column.

        Each column is a (what, kind) pair, kind int or float. An error names
        the line of the first token that does not convert.
        """
        start, width = self._pos, len(columns)
        tokens = self._take(n_rows * width, columns[0][0])
        try:
            number(" ".join(tokens), str)  # one scan of the block
            # numpy converts a str to int64 by int(); a float column is no faster that way
            out = [np.array(tokens[j::width], np.int64) if kind is int
                   else np.fromiter(map(float, tokens[j::width]), np.float64, n_rows)
                   for j, (_, kind) in enumerate(columns)]
            if all(np.isfinite(a).all() for a in out):
                return out
        except (ValueError, OverflowError):
            pass
        for i, tok in enumerate(tokens):
            what, kind = columns[i % width]
            try:
                ok = np.isfinite(_DTYPES[kind](number(tok, kind)))
            except (ValueError, OverflowError):
                ok = False
            if not ok:
                self.fail(f"expected {'finite ' * (kind is float)}{what}, got {tok!r}", start + i)

    def next_rows(self, what: str, n_rows: int, *columns) -> list[np.ndarray]:
        """The value columns of n_rows rows ``id value...``, ids 0..n_rows-1 in order."""
        start = self._pos
        ids, *values = self.next_block(n_rows, (f"{what} id", int), *columns)
        wrong = np.flatnonzero(ids != np.arange(n_rows))
        if wrong.size:
            i = wrong[0]
            self.fail(f"{what} ids must be contiguous from 0, expected {i} got {ids[i]}",
                      start + i * (1 + len(columns)))
        return values

    def expect(self, word: str):
        tok = self.next_token(repr(word))
        if tok != word:
            self.fail(f"expected {word!r}, got {tok!r}")


def _cells(columns) -> np.ndarray:
    """Equal-length 1-D columns as a (rows, columns) object array: ints as Python
    ints, floats as their repr, each distinct float of the call rendered once
    (keyed by its bits, so -0.0 and 0.0 stay apart)."""
    arrays = [np.asarray(c) for c in columns]
    out = np.empty((len(arrays[0]) if arrays else 0, len(arrays)), dtype=object)
    floats = [j for j, a in enumerate(arrays) if a.dtype.kind == "f"]
    for j in set(range(len(arrays))) - set(floats):
        out[:, j] = arrays[j]  # casting to object makes Python ints
    if floats:
        bits = np.concatenate([arrays[j] for j in floats], dtype=np.float64).view(np.uint64)
        distinct, where = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        out[:, floats] = text[where].reshape(len(floats), -1).T
    return out


def write_block(f, per_line: int, *columns) -> None:
    """Write the rows of equal-length 1-D columns to the text file f as tokens,
    row after row, ``per_line`` to a line, each line ending in LF. A token is
    a cell of ``_cells``: the repr of its value."""
    items = _cells(columns).ravel().tolist()
    full, rest = divmod(len(items), per_line)
    line = " ".join(["%s"] * per_line) + "\n"
    f.write((line * full + " ".join(["%s"] * rest) + "\n" * (rest > 0)) % tuple(items))


def write_csv(path, header: list[str] | None, columns) -> None:
    """Write 1-D columns of equal length as CSV, one row per index."""
    write_csv_series([path], header, columns[:-1], columns[-1:])


def write_csv_series(paths, header: list[str] | None, shared, varying) -> None:
    """Write one CSV per path: an optional header line, then a row per index of
    the shared columns and the path's own column of ``varying``. A cell is the
    repr of its value (see ``_cells``); lines end in LF. The shared cells are
    rendered once into a template each file fills in; a file's own column,
    whose values are seldom repeated, goes straight through ``%r``."""
    n = len(shared[0]) if len(shared) else len(varying[0])
    row = "%s," * len(shared) + "%%r\n"  # the shared cells, then the file's own slot
    template = (row * n) % tuple(_cells(shared).ravel().tolist())
    head = "" if header is None else ",".join(header) + "\n"
    for path, column in zip(paths, varying):
        text = head + template % tuple(np.asarray(column).tolist())
        Path(path).write_text(text, newline="\n")  # no os.linesep translation


def read_nodal_csv(path, columns: list[str], n_nodes: int | None = None):
    """Read a CSV whose header starts with `columns`, the first being node_id.

    Returns (source, values, lines): the other columns as floats in node
    order, shape (n, len(columns) - 1), and the file line of each node's
    row. A row without an integer id and numbers in every column, a repeated
    id, ids not contiguous from 0, (given n_nodes) another row count, or a
    field longer than ``csv.field_size_limit()`` is a ValidationError naming
    the source and, for a row, its line.

    The rows are split in one ``csv.reader`` pass and convert a column at a
    time; only a file that fails is read again, row by row.
    """
    source, text = str(path), read_text(path)
    reader, lines, rows = csv.reader(io.StringIO(text)), [], []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header[: len(columns)]] != columns:
            raise ValidationError(f"{source} must start with {','.join(columns)!r}, got {header}")
        for row in reader:
            if row:
                lines.append(reader.line_num)
                rows.append(row)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        _refuse_first_bad_row(source, columns, lines, rows)
        raise ValidationError(f"{source} line {reader.line_num}: {exc}") from None
    n, width = len(rows), len(columns)
    try:  # the rows in one scan; the header may hold a `_`
        number(text.partition("\n")[2], str)
    except ValueError:  # a `_` beyond the read columns passes
        _refuse_first_bad_row(source, columns, lines, rows)
    values = np.empty((n, width - 1))
    try:
        ids = np.fromiter(map(int, map(itemgetter(0), rows)), np.int64, n)
        for j in range(1, width):
            values[:, j - 1] = np.fromiter(map(float, map(itemgetter(j), rows)), np.float64, n)
        order = np.argsort(ids)
        contiguous = np.array_equal(ids[order], np.arange(n))
    except (ValueError, IndexError, OverflowError):  # OverflowError: an id beyond int64
        contiguous = False
    if not contiguous:
        _refuse_first_bad_row(source, columns, lines, rows)  # else an id is missing or out of range
        raise ValidationError(f"{source}: node ids must be contiguous from 0")
    if n_nodes is not None and n != n_nodes:
        raise ValidationError(f"{source} has {n} rows, the mesh has {n_nodes} nodes")
    return source, values[order], np.array(lines, dtype=np.int64)[order]


def _refuse_first_bad_row(source, columns: list[str], lines, rows) -> None:
    """Raise at the first row, on its file line, that has no integer id and
    numbers in every column, or that repeats an earlier id. A cell is read by
    ``errors.number``."""
    seen = set()
    for line, row in zip(lines, rows):
        try:
            node, _ = number(row[0], int), [number(row[j]) for j in range(1, len(columns))]
        except (ValueError, IndexError):
            node = None
        if node is None or node in seen:
            raise ValidationError(
                f"{source} line {line}: expected a new integer node id and "
                f"numeric {', '.join(columns[1:])}, got {','.join(row)!r}"
            )
        seen.add(node)
