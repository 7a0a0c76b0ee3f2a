"""Readers and writers for the text formats: whitespace tokens (mesh,
checkpoint) and CSV tables (fields, conductivity, errors, post-processing).

Token comments run from ``#`` to end of line. Tokens may wrap across lines;
the reader tracks line numbers so parse errors can point at the offending line.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, ValidationError


class TokenReader:
    def __init__(self, text: str, *, error_cls=MeshFormatError):
        self._tokens: list[tuple[int, str]] = []
        self._error_cls = error_cls
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            for tok in body.split():
                self._tokens.append((lineno, tok))
        self._pos = 0

    def fail(self, message: str):
        lineno = self._tokens[self._pos - 1][0] if self._tokens else 0
        raise self._error_cls(f"line {lineno}: {message}")

    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)

    def next_str(self, what: str = "token") -> str:
        if self.exhausted():
            lineno = self._tokens[-1][0] if self._tokens else 0
            raise self._error_cls(f"line {lineno}: unexpected end of file, expected {what}")
        lineno, tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def next_int(self, what: str = "integer") -> int:
        tok = self.next_str(what)
        try:
            return int(tok)
        except ValueError:
            self.fail(f"expected {what}, got {tok!r}")

    def next_float(self, what: str = "number") -> float:
        tok = self.next_str(what)
        try:
            return float(tok)
        except ValueError:
            self.fail(f"expected {what}, got {tok!r}")

    def expect(self, word: str):
        tok = self.next_str(repr(word))
        if tok != word:
            self.fail(f"expected {word!r}, got {tok!r}")


def wrap_tokens(tokens, per_line: int = 8) -> str:
    """Render tokens as text wrapped to ``per_line`` items per line."""
    items = [str(t) for t in tokens]
    lines = []
    for i in range(0, len(items), per_line):
        lines.append(" ".join(items[i : i + per_line]))
    return "\n".join(lines)


def write_csv(path, header: list[str] | None, columns) -> None:
    """Write 1-D columns of equal length as CSV, one row per index.

    An optional header line comes first. Each value is written as the repr of
    its Python scalar (shortest exact round trip; ints stay integers), and
    every line ends with LF.
    """
    columns = [np.asarray(c).tolist() for c in columns]
    row = ",".join(["%r"] * len(columns)) + "\n"
    head = "" if header is None else ",".join(header) + "\n"
    text = head + "".join([row % values for values in zip(*columns)])
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
        source, text = getattr(path_or_file, "name", "CSV stream"), path_or_file.read()
    else:
        source, text = str(path_or_file), Path(path_or_file).read_text()
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
