"""Readers and writers for the package's file formats: whitespace tokens
(mesh, checkpoint header), ``.npy`` array records (checkpoint arrays,
sample sets) and CSV tables (fields, conductivity, errors,
post-processing).

Token comments run from ``#`` to end of line. Tokens may wrap across lines;
a parse error names the line of the offending token.

``TokenReader`` keeps the text and a character cursor; no Python object per
token outlives one window. A single token is one regex search. A block is
converted a window of about ``WINDOW`` characters at a time, cut at
whitespace (at a line end if the text has comments, which are blanked per
window), by ``int``/``float`` per token into preallocated arrays. An error
re-reads the block to name the line a whole-text parse would.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from .errors import MeshFormatError, ValidationError

_DTYPES = {int: np.int64, float: np.float64}

WINDOW = 1 << 18  # characters of a token block converted at a time
TOKEN_CHARS = 32  # window characters at most per token the block still needs
RECORD_HEADER = 1 << 12  # bytes at most of an .npy record's header

# the line boundaries of str.splitlines, all of them whitespace
_BREAKS = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(rf"\r\n|[{_BREAKS}]")
_COMMENT = re.compile(rf"#[^{_BREAKS}]*")
_LEX = re.compile(rf"[^\s#]+|{_COMMENT.pattern}")  # a token or a comment
_SPACE, _NEWLINE = re.compile(r"\s"), re.compile(r"\n")


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


def _converts(tok: str, kind) -> bool:
    """Whether tok converts by kind (int or float) to a finite value."""
    try:
        return bool(np.isfinite(_DTYPES[kind](kind(tok))))
    except (ValueError, OverflowError):
        return False


def _fill(out: list[np.ndarray], columns, tokens: list[str], done: int) -> bool:
    """Convert tokens, those of the block from token index ``done`` on, into
    the column arrays; False if one does not convert."""
    width = len(columns)
    try:
        for j, (_, kind) in enumerate(columns):
            first = (j - done) % width
            col = tokens[first::width]
            row = (done + first) // width
            out[j][row : row + len(col)] = np.fromiter(map(kind, col), _DTYPES[kind], len(col))
    except (ValueError, OverflowError):
        return False
    return True


class TokenReader:
    """The whitespace tokens of a text, read front to back; numbers convert with
    ``int`` or a finite ``float``. Errors name ``source`` and the token's line."""

    def __init__(self, text: str, *, error_cls=MeshFormatError, source: str | None = None):
        self._text = text
        self._comments = "#" in text
        self._pos = 0  # the cursor, at the end of the last token read
        self._error_cls = error_cls
        self._source = f"{source}: " if source else ""

    def fail(self, message: str, offset: int | None = None):
        """Raise an error at the line of a character offset, by default that of
        the last token read."""
        at = self._pos if offset is None else offset
        lineno = 1 + sum(1 for _ in _LINE_BREAK.finditer(self._text, 0, at))
        raise self._error_cls(f"{self._source}line {lineno}: {message}")

    def _tokens(self, pos: int):
        """The token matches from offset pos on, comments skipped."""
        return (m for m in _LEX.finditer(self._text, pos) if m[0][0] != "#")

    def exhausted(self) -> bool:
        return next(self._tokens(self._pos), None) is None

    def next_token(self, what: str, kind=str):
        """The next token, as a str or converted by kind (int or float)."""
        if kind is not str:
            return self.next_block(1, (what, kind))[0].item()
        m = next(self._tokens(self._pos), None)
        if m is None:
            self.fail(f"unexpected end of file, expected {what}")
        self._pos = m.end()
        return m[0]

    def next_keyed(self, word: str, kind=str):
        """The value of a ``word value`` pair."""
        self.expect(word)
        return self.next_token(word, kind)

    def next_block(self, n_rows: int, *columns) -> list[np.ndarray]:
        """The next n_rows rows of one token per column, as one array per column.

        Each column is a (what, kind) pair, kind int or float. An error names
        the line of the first token that does not convert.
        """
        width, text = len(columns), self._text
        n = n_rows * width
        start, done = self._pos, 0
        if n < 0:
            self.fail(f"negative {columns[0][0]} count {n}")
        if 2 * n - 1 > len(text) - start:  # too few characters for n tokens and their gaps
            self._refuse(start, n, columns)
        out = [np.empty(n_rows, _DTYPES[kind]) for _, kind in columns]
        cut = _NEWLINE if self._comments else _SPACE  # no comment spans two windows
        while done < n:
            pos = self._pos
            if pos >= len(text):
                self._refuse(start, n, columns)
            m = cut.search(text, pos + min(WINDOW, TOKEN_CHARS * (n - done)))
            self._pos = m.start() if m else len(text)
            window = text[pos : self._pos]
            if self._comments:
                window = _COMMENT.sub(lambda c: " " * len(c[0]), window)
            tokens = window.split()
            if len(tokens) >= n - done:  # the block ends in this window
                drop = len(tokens) - (n - done)
                del tokens[n - done :]
                self._pos = pos + len(window.rsplit(None, drop)[0])
            if not _fill(out, columns, tokens, done):
                self._refuse(start, n, columns)
            done += len(tokens)
        if not all(np.isfinite(a).all() for a in out):
            self._refuse(start, n, columns)
        return out

    def _refuse(self, start: int, n: int, columns):
        """Raise the error of the block of n tokens from offset start: the end of
        the file if the block is short, else its first token that does not convert."""
        width, count, bad, self._pos = len(columns), 0, None, start
        for count, m in enumerate(islice(self._tokens(start), n), 1):
            self._pos = m.end()
            what, kind = columns[(count - 1) % width]
            if bad is None and not _converts(m[0], kind):
                bad = m, what, kind
        if count < n:
            self.fail(f"unexpected end of file, expected {columns[0][0]}")
        m, what, kind = bad
        self.fail(f"expected {'finite ' * (kind is float)}{what}, got {m[0]!r}", m.start())

    def next_rows(self, what: str, n_rows: int, *columns) -> list[np.ndarray]:
        """The value columns of n_rows rows ``id value...``, ids 0..n_rows-1 in order."""
        start = self._pos
        ids, *values = self.next_block(n_rows, (f"{what} id", int), *columns)
        wrong = np.flatnonzero(ids != np.arange(n_rows))
        if wrong.size:
            i = wrong[0]
            row = next(islice(self._tokens(start), i * (1 + len(columns)), None))
            self.fail(f"{what} ids must be contiguous from 0, expected {i} got {ids[i]}",
                      row.start())
        return values

    def expect(self, word: str):
        tok = self.next_token(repr(word))
        if tok != word:
            self.fail(f"expected {word!r}, got {tok!r}")


def write_block(f, per_line: int, *columns) -> None:
    """Write the rows of equal-length 1-D columns to the text file f as tokens,
    row after row, ``per_line`` to a line, each line ending in LF.

    A token is the str of a Python scalar of ``.tolist()``, so floats round
    trip exactly and ints stay integers.
    """
    items = list(map(str, chain.from_iterable(zip(*(c.tolist() for c in columns)))))
    f.write("".join([" ".join(items[j : j + per_line]) + "\n" for j in range(0, len(items), per_line)]))


def write_csv(path, header: list[str] | None, columns) -> None:
    """Write 1-D columns of equal length as CSV, one row per index."""
    write_csv_series([path], header, columns[:-1], columns[-1:])


def write_csv_series(paths, header: list[str] | None, shared, varying) -> None:
    """Write one CSV per path: an optional header line, then a row per index of
    the shared columns and the path's own column of ``varying``. A value is the
    repr of its Python scalar (exact round trip; ints stay ints); lines end in
    LF. The shared text is formatted once, as a template each file fills in."""
    lead = [np.asarray(c).tolist() for c in shared]
    row = "%r," * len(lead) + "%%r\n"  # the shared values, then the file's own slot
    rows = zip(*lead) if lead else [()] * len(varying[0])
    head = "" if header is None else ",".join(header) + "\n"
    template = "".join([row % values for values in rows])
    for path, column in zip(paths, varying):
        text = head + template % tuple(np.asarray(column).tolist())
        Path(path).write_text(text, newline="\n")  # no os.linesep translation


def read_nodal_csv(path_or_file, columns: list[str], n_nodes: int | None = None):
    """Read a CSV whose header starts with `columns`, the first being node_id.

    Returns (source, values, lines): the other columns as floats in node
    order, shape (n, len(columns) - 1), and the file line of each node's
    row. A row without an integer id and numbers in every column, a repeated
    id, ids not contiguous from 0, or (given n_nodes) another row count is a
    ValidationError naming the source and, for a row, its line.
    """
    if hasattr(path_or_file, "read"):
        source = getattr(path_or_file, "name", "CSV stream")
        with decoding(source):
            text = path_or_file.read()
    else:
        source, text = str(path_or_file), read_text(path_or_file)
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header[: len(columns)]] != columns:
        raise ValidationError(f"{source} must start with {','.join(columns)!r}, got {header}")
    rows = {}
    for row in reader:
        if not row:
            continue
        try:
            node, values = int(row[0]), [float(row[j]) for j in range(1, len(columns))]
        except (ValueError, IndexError):
            node = None
        if node is None or node in rows:
            raise ValidationError(
                f"{source} line {reader.line_num}: expected a new integer node id and "
                f"numeric {', '.join(columns[1:])}, got {','.join(row)!r}"
            )
        rows[node] = (reader.line_num, *values)
    n = len(rows)
    if sorted(rows) != list(range(n)):
        raise ValidationError(f"{source}: node ids must be contiguous from 0")
    if n_nodes is not None and n != n_nodes:
        raise ValidationError(f"{source} has {n} rows, the mesh has {n_nodes} nodes")
    table = np.array([rows[i] for i in range(n)]).reshape(n, len(columns))
    return source, table[:, 1:], table[:, 0].astype(np.int64)
