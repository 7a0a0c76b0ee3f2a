"""Readers and writers for the text formats: whitespace tokens (mesh,
checkpoint) and CSV tables (fields, conductivity, errors, post-processing).

Token comments run from ``#`` to end of line. Tokens may wrap across lines;
a parse error names the line of the offending token.

``TokenReader`` reads an open text stream front to back and keeps only the
current window of it: at most ``WINDOW`` characters cut at whitespace, plus
the partial token or comment carried into the next window. No Python object
per token outlives one window. A single token is one regex search. A block
is converted a window at a time, cut at whitespace outside a comment
(comments are blanked per window), by ``int``/``float`` per token into
preallocated arrays. An error re-reads the stream from its start, a window
at a time, to name the line a whole-text parse would.
"""

from __future__ import annotations

import csv
import io
import re
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, ValidationError

_DTYPES = {int: np.int64, float: np.float64}

WINDOW = 1 << 18  # characters of a token stream read and converted at a time
TOKEN_CHARS = 32  # window characters at most per token the block still needs
CHUNK = 1 << 16  # tokens formatted per write

# the line boundaries of str.splitlines, all of them whitespace
_BREAKS = "\n\r\v\f\x1c-\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(rf"\r\n|[{_BREAKS}]")
_COMMENT = re.compile(rf"#[^{_BREAKS}]*")
_LEX = re.compile(rf"[^\s#]+|{_COMMENT.pattern}")  # a token or a comment
_SPACE = re.compile(r"\s")


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
    """The whitespace tokens of a seekable text stream (a str reads through
    ``io.StringIO``), read front to back; numbers convert with ``int`` or a
    finite ``float``. Errors name ``source`` and the token's line."""

    def __init__(self, stream, *, error_cls=MeshFormatError, source: str | None = None):
        self._stream = io.StringIO(stream) if isinstance(stream, str) else stream
        # characters at most still to come: a text file seeks to its size in bytes
        self._size = self._stream.seek(0, io.SEEK_END)
        self._rewind()
        self._pos = 0  # the offset of the end of the last token read
        self._error_cls = error_cls
        self._source = f"{source}: " if source else ""

    def fail(self, message: str, offset: int | None = None):
        """Raise an error at the line of a character offset, by default that of
        the last token read."""
        left, lineno, last = self._pos if offset is None else offset, 1, ""
        self._stream.seek(0)
        while left > 0 and (chunk := self._stream.read(min(WINDOW, left))):
            left -= len(chunk)
            lineno += sum(1 for _ in _LINE_BREAK.finditer(chunk)) - (last + chunk[0] == "\r\n")
            last = chunk[-1]
        raise self._error_cls(f"{self._source}line {lineno}: {message}")

    def _rewind(self):
        """Put the cursor at the start of the stream, the buffer empty."""
        self._stream.seek(0)
        self._buf, self._base, self._at, self._eof = "", 0, 0, False  # _buf starts at offset _base

    def _more(self):
        """Drop the buffer before the cursor and read the next window onto the rest."""
        chunk = self._stream.read(WINDOW)
        self._base += self._at
        self._buf, self._at, self._eof = self._buf[self._at :] + chunk, 0, not chunk

    def _match(self):
        """The next token's match in the buffer, comments passed over; None at
        the end of the stream."""
        while True:
            for m in _LEX.finditer(self._buf, self._at):
                if m.end() == len(self._buf) and not self._eof:
                    break  # it may go on in the next window
                if m[0][0] != "#":
                    return m
                self._at = m.end()
            else:
                if self._eof:
                    return None
                self._at = len(self._buf)
            self._more()

    def _replay(self, start: int):
        """(token, start, end offset) of the tokens from offset start on, the
        stream re-read from its start."""
        self._rewind()
        while start - self._base > len(self._buf) and not self._eof:
            self._at = len(self._buf)
            self._more()
        self._at = start - self._base
        while (m := self._match()) is not None:
            self._at = m.end()
            yield m[0], self._base + m.start(), self._base + m.end()

    def _window(self, limit: int) -> str:
        """The text from the cursor to the first whitespace outside a comment
        at least limit characters on (or to the end), the cursor moved there."""
        while True:
            buf, at = self._buf, self._at
            m = _SPACE.search(buf, at + limit)
            cut = m.start() if m else len(buf)
            if (hash_at := buf.rfind("#", at, cut)) >= 0:  # a cut in a comment moves to its end
                cut = max(cut, _COMMENT.match(buf, hash_at).end())
            if cut < len(buf) or self._eof:
                self._at = cut
                return buf[at:cut]
            self._more()

    def exhausted(self) -> bool:
        return self._match() is None

    def next_token(self, what: str, kind=str):
        """The next token, as a str or converted by kind (int or float)."""
        if kind is not str:
            return self.next_block(1, (what, kind))[0].item()
        m = self._match()
        if m is None:
            self.fail(f"unexpected end of file, expected {what}")
        self._at, self._pos = m.end(), self._base + m.end()
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
        width = len(columns)
        n = n_rows * width
        start, done = self._pos, 0
        if n < 0:
            self.fail(f"negative {columns[0][0]} count {n}")
        if 2 * n - 1 > self._size - start:  # too few characters for n tokens and their gaps
            self._refuse(start, n, columns)
        out = [np.empty(n_rows, _DTYPES[kind]) for _, kind in columns]
        while done < n:
            window = self._window(min(WINDOW, TOKEN_CHARS * (n - done)))
            if not window:
                self._refuse(start, n, columns)
            if "#" in window:
                window = _COMMENT.sub(lambda c: " " * len(c[0]), window)
            tokens = window.split()
            if len(tokens) >= n - done:  # the block ends in this window
                drop = len(tokens) - (n - done)
                del tokens[n - done :]
                self._at -= len(window) - len(window.rsplit(None, drop)[0])
                self._pos = self._base + self._at
            if not _fill(out, columns, tokens, done):
                self._refuse(start, n, columns)
            done += len(tokens)
        if not all(np.isfinite(a).all() for a in out):
            self._refuse(start, n, columns)
        return out

    def _refuse(self, start: int, n: int, columns):
        """Raise the error of the block of n tokens from offset start: the end of
        the file if the block is short, else its first token that does not convert."""
        width, count, end, bad = len(columns), 0, start, None
        for count, (tok, at, end) in enumerate(islice(self._replay(start), n), 1):
            what, kind = columns[(count - 1) % width]
            if bad is None and not _converts(tok, kind):
                bad = tok, at, what, kind
        if count < n:
            self.fail(f"unexpected end of file, expected {columns[0][0]}", end)
        tok, at, what, kind = bad
        self.fail(f"expected {'finite ' * (kind is float)}{what}, got {tok!r}", at)

    def next_rows(self, what: str, n_rows: int, *columns) -> list[np.ndarray]:
        """The value columns of n_rows rows ``id value...``, ids 0..n_rows-1 in order."""
        start = self._pos
        ids, *values = self.next_block(n_rows, (f"{what} id", int), *columns)
        wrong = np.flatnonzero(ids != np.arange(n_rows))
        if wrong.size:
            i = wrong[0]
            _, at, _ = next(islice(self._replay(start), i * (1 + len(columns)), None))
            self.fail(f"{what} ids must be contiguous from 0, expected {i} got {ids[i]}", at)
        return values

    def expect(self, word: str):
        tok = self.next_token(repr(word))
        if tok != word:
            self.fail(f"expected {word!r}, got {tok!r}")


def write_block(f, per_line: int, *columns) -> None:
    """Write the rows of equal-length 1-D columns to the text file f as tokens,
    row after row, ``per_line`` to a line, each line ending in LF.

    A token is the str of a Python scalar of ``.tolist()``, so floats round
    trip exactly and ints stay integers. About ``CHUNK`` tokens, whole lines
    of whole rows, are formatted and written at a time.
    """
    width = len(columns)
    rows = max(1, CHUNK // (width * per_line)) * per_line
    for i in range(0, len(columns[0]), rows):
        parts = [c[i : i + rows].tolist() for c in columns]
        items = list(map(str, parts[0] if width == 1 else chain.from_iterable(zip(*parts))))
        f.write("".join([" ".join(items[j : j + per_line]) + "\n"
                         for j in range(0, len(items), per_line)]))


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
