"""The token reader: mesh files and checkpoints round trip bitwise, and a
block reads the same values, errors and lines whether its text is a str or
read from a file, whatever whitespace, line breaks and comments it holds.
The text writers: meshes and CSVs have the bytes of a row-by-row writer."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rowwise_csv
from folheat import mesh as mesh_module
from folheat import textio
from folheat.cli import main
from folheat.errors import ValidationError
from folheat.mesh import DirichletSpec, Mesh, build_dof_map, build_structured_grid, load_mesh, serialize_mesh
from folheat.neural import init_model, load_model, save_model
from folheat.textio import TokenReader

DATA_MESH = Path(__file__).resolve().parent.parent / "data" / "irregular.folmesh"


def mesh_arrays(mesh):
    return [mesh.nodes, mesh.elems, *(mesh.boundary_sets[tag] for tag in sorted(mesh.boundary_sets))]


def model_arrays(model):
    arrays = [model.params_flat()]
    for g in model.groups:
        arrays += [g.out_slots] + ([] if g.in_slots is None else [g.in_slots])
    return arrays


def assert_bitwise_equal(arrays, expected):
    assert len(arrays) == len(expected)
    for a, b in zip(arrays, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_checkpoints_round_trip_bitwise_from_a_file(tmp_path):
    mesh = build_structured_grid(6, 5, 1.0, 2.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    models = {arch: init_model(arch, mesh, dofs, hidden_spec=hidden, seed=1)
              for arch, hidden in [("separated", None), ("elementwise", None),
                                   ("fully_connected", (12, 9))]}
    for arch, model in models.items():
        save_model(model, tmp_path / arch)
    for arch, model in models.items():
        assert_bitwise_equal(model_arrays(load_model(tmp_path / arch, dofs)), model_arrays(model))


def test_meshes_round_trip_bitwise_from_a_str(tmp_path):
    out = tmp_path / "m81.folmesh"
    assert main(["gen-mesh", "--nx", "81", "--ny", "81", "--out", str(out)]) == 0
    assert_bitwise_equal(mesh_arrays(load_mesh(out.read_text())),
                         mesh_arrays(build_structured_grid(81, 81, 1.0, 1.0)))
    shipped = DATA_MESH.read_text()
    assert serialize_mesh(load_mesh(shipped)) == shipped


def readers(text, directory, **kwargs):
    """A TokenReader of text as a str, then one of the text of a file on disk
    holding it."""
    yield TokenReader(text, **kwargs)
    path = directory / "tokens.txt"
    path.write_text(text)
    yield TokenReader(textio.read_text(path), **kwargs)


def test_block_edges(tmp_path):
    """A block stops at its count, the cursor at its last token: the next
    block may follow at once, and an error after it names its last line."""
    for reader in readers("-0 +.5 1\n2 3 1e-300\n\n\n\n", tmp_path, error_cls=ValidationError):
        assert [reader.next_block(3, ("weight", float))[0].tolist() for _ in range(2)] == [
            [-0.0, 0.5, 1.0], [2.0, 3.0, 1e-300]]
        with pytest.raises(ValidationError, match="^line 2: unexpected end of file, expected 'end'$"):
            reader.expect("end")
    for reader in readers("count 2\n\n\n", tmp_path, error_cls=ValidationError):
        with pytest.raises(ValidationError, match="^line 1: unexpected end of file, expected bias$"):
            reader.next_block(reader.next_keyed("count", int), ("bias", float))


def test_crlf_is_one_line_break(tmp_path):
    """An error's line counts "\\r\\n" as one break and a lone "\\r" as one."""
    for reader in readers("a\r\nb\r\r\n\nc x", tmp_path, error_cls=ValidationError):
        assert [reader.next_token("word") for _ in range(3)] == ["a", "b", "c"]
        with pytest.raises(ValidationError, match="^line 5: expected finite value, got 'x'$"):
            reader.next_token("value", float)


@pytest.fixture(scope="module")
def token_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tokens")


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
TOKENS = st.one_of(
    FLOATS.map(repr),
    FLOATS.map(lambda x: "%.17g" % x),
    st.sampled_from(["+.5", "1e-300", "-0", "1_0", "0x10", "1e999", "nan"]),
)
# every line boundary of str.splitlines, each also ending a comment, and a
# no-break space: whitespace that neither breaks a line nor ends a comment
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SEPARATORS = st.sampled_from(
    [" ", "  ", "\t", "\xa0", " \n\n", "# 1 2\n", " # a\xa0note\n"]
    + BREAKS + [" # a note" + br for br in BREAKS])


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(tokens=st.lists(TOKENS, min_size=1, max_size=40), tail=st.sampled_from(["end", "0.5 end", ""]),
       missing=st.sampled_from([0, 2]), data=st.data())
def test_float_block_reads_as_float_per_token(token_dir, tokens, tail, missing, data):
    """A float block of len(tokens) + missing values, wrapped and commented at
    random and followed by tail, reads as float() of each token. Otherwise it
    fails at the end of the file, or else at the first token that float()
    refuses or makes non-finite, or that holds a `_` digit separator, naming
    its line."""
    text, lines, words = "", [], tokens + tail.split()
    for word in words:
        text += word
        lines.append(len(text.splitlines()))
        text += data.draw(SEPARATORS)
    n = len(tokens) + missing
    values, message = [], None
    if len(words) < n:
        message = f"line {lines[-1]}: unexpected end of file, expected weight"
    for word, lineno in zip(words[:n], lines):
        try:
            value = float(word) if "_" not in word else None  # float("1_0") is 10.0
        except ValueError:
            value = None
        if message is None and (value is None or not np.isfinite(value)):
            message = f"line {lineno}: expected finite weight, got {word!r}"
        values.append(value)
    for reader in readers(text, token_dir, error_cls=ValidationError, source="block"):
        if message is not None:
            with pytest.raises(ValidationError, match=f"^block: {re.escape(message)}$"):
                reader.next_block(n, ("weight", float))
            continue
        (block,) = reader.next_block(n, ("weight", float))
        assert block.tobytes() == np.array(values, dtype=np.float64).tobytes()
        assert [reader.next_token("tail") for _ in words[n:]] == words[n:]
        assert reader.exhausted()
        with pytest.raises(ValidationError, match=f"^block: line {lines[-1]}: unexpected end of file"):
            reader.expect("end")


INT_TOKENS = st.one_of(
    st.integers(-2**64, 2**64).map(str),
    st.integers(-2**63, 2**63 - 1).map(lambda i: "%+d" % i),
    st.sampled_from(["+5", "-0", "007", "٣٤", "0x1", "1e3", "1.0", "nan", "1_0",
                     str(2**63), str(-2**63), str(2**63 - 1), str(-2**63 - 1)]),
)


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(tokens=st.lists(INT_TOKENS, min_size=1, max_size=40), tail=st.sampled_from(["end", "7 end", ""]),
       missing=st.sampled_from([0, 2]), data=st.data())
def test_int_block_reads_as_int_per_token(token_dir, tokens, tail, missing, data):
    """An int block of len(tokens) + missing values, wrapped and commented at
    random and followed by tail, reads as int() of each token. Otherwise it
    fails at the end of the file, or else at the first token that int()
    refuses, that holds a `_` digit separator or that int64 cannot hold,
    naming its line."""
    text, lines, words = "", [], tokens + tail.split()
    for word in words:
        text += word
        lines.append(len(text.splitlines()))
        text += data.draw(SEPARATORS)
    n = len(tokens) + missing
    values, message = [], None
    if len(words) < n:
        message = f"line {lines[-1]}: unexpected end of file, expected node"
    for word, lineno in zip(words[:n], lines):
        try:
            value = int(word) if "_" not in word else None  # int("1_0") is 10
        except ValueError:
            value = None
        if message is None and (value is None or not -2**63 <= value < 2**63):
            message = f"line {lineno}: expected node, got {word!r}"
        values.append(value)
    for reader in readers(text, token_dir, error_cls=ValidationError, source="block"):
        if message is not None:
            with pytest.raises(ValidationError, match=f"^block: {re.escape(message)}$"):
                reader.next_block(n, ("node", int))
            continue
        (block,) = reader.next_block(n, ("node", int))
        assert block.dtype == np.int64 and block.tolist() == values
        assert [reader.next_token("tail") for _ in words[n:]] == words[n:]
        assert reader.exhausted()
        with pytest.raises(ValidationError, match=f"^block: line {lines[-1]}: unexpected end of file"):
            reader.expect("end")


@pytest.mark.parametrize("header, columns, text", [
    (["k"], [np.array([1.5, -0.0])], "k\n1.5\n-0.0\n"),
    (None, [range(2), np.array([0.1 + 0.2, 1e-300])], "0,0.30000000000000004\n1,1e-300\n"),
    (["a%", "b"], np.array([[1.0, 2.0], [3.0, 4.0]]), "a%,b\n1.0,3.0\n2.0,4.0\n"),
])
def test_write_csv(tmp_path, header, columns, text):
    textio.write_csv(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == text.encode()


def rowwise_write_block(f, per_line, *columns):
    """The writer write_block replaced, kept as the byte reference: the str of
    every Python scalar, one join per line."""
    items = [str(v) for row in zip(*(np.asarray(c).tolist() for c in columns)) for v in row]
    f.write("".join([" ".join(items[j : j + per_line]) + "\n" for j in range(0, len(items), per_line)]))


def signed_zero_mesh():
    """A 5x5 grid turned half a turn about the origin, so its zero coordinates are
    -0.0, with a 25-node boundary set whose second line is short."""
    m = build_structured_grid(5, 5, 1.0, 1.0)
    return Mesh(-m.nodes, m.elems, {**m.boundary_sets, "all": np.arange(m.n_nodes)})


def jittered_grid():
    """The 81x81 grid with every coordinate moved: no two values repeat."""
    m = build_structured_grid(81, 81, 1.0, 1.0)
    jitter = np.random.default_rng(5).uniform(-1e-3, 1e-3, m.nodes.shape)
    return Mesh(m.nodes + jitter, m.elems, m.boundary_sets)


@pytest.mark.parametrize("name", ["grid81", "jittered81", "irregular", "signed_zero"])
def test_serialize_mesh_writes_the_rowwise_bytes(monkeypatch, irregular_mesh, name):
    mesh = {"grid81": lambda: build_structured_grid(81, 81, 1.0, 1.0), "jittered81": jittered_grid,
            "irregular": lambda: irregular_mesh, "signed_zero": signed_zero_mesh}[name]()
    text = serialize_mesh(mesh)
    monkeypatch.setattr(mesh_module, "write_block", rowwise_write_block)
    assert text == serialize_mesh(mesh)
    assert_bitwise_equal(mesh_arrays(load_mesh(text)), mesh_arrays(mesh))


def test_signed_zero_mesh_text():
    lines = serialize_mesh(signed_zero_mesh()).splitlines()
    assert lines[2] == "0 -0.0 -0.0" and lines[3] == "1 -0.25 -0.0"
    assert lines[-2:] == [" ".join(map(str, range(16))), " ".join(map(str, range(16, 25)))]


# awkward floats: signed zeros, NaNs with a sign or a payload, infinities,
# subnormals, and both sides of repr's switch to scientific notation
NAN_BITS = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64).tolist()
AWKWARD = [0.0, -0.0, math.nan, *NAN_BITS, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
           1e16, 9999999999999998.0, 1e-05, 0.0001, 0.1, 0.30000000000000004, -1.0, 2.0**60]
VALUES = st.one_of(st.sampled_from(AWKWARD), st.floats())


@st.composite
def csv_columns(draw, n_rows, n_columns):
    """n_columns columns of n_rows values: float arrays mixing repeated and
    awkward values, int64 arrays, or ranges."""
    out = []
    for _ in range(n_columns):
        kind = draw(st.sampled_from(["float", "float", "int", "range"]))
        if kind == "range":
            start = draw(st.integers(-3, 3))
            out.append(range(start, start + n_rows))
        elif kind == "int":
            out.append(np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n_rows,
                                              max_size=n_rows)), dtype=np.int64))
        else:
            pool = draw(st.lists(VALUES, min_size=1, max_size=4))  # values that repeat
            out.append(np.array(draw(st.lists(st.one_of(st.sampled_from(pool), VALUES),
                                              min_size=n_rows, max_size=n_rows)), dtype=np.float64))
    return out


@settings(database=None, derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n_rows=st.sampled_from([0, 1, 2, 7, 40]), n_shared=st.integers(0, 4),
       n_files=st.integers(1, 3), header=st.sampled_from([None, ["a"], ["node_id", "x", "y", "T"]]))
def test_csv_writers_write_the_rowwise_bytes(token_dir, data, n_rows, n_shared, n_files, header):
    shared = data.draw(csv_columns(n_rows, n_shared))
    varying = data.draw(csv_columns(n_rows, n_files))
    paths = [token_dir / f"series_{i}.csv" for i in range(n_files)]
    textio.write_csv_series(paths, header, shared, varying)
    for path, column in zip(paths, varying):
        assert path.read_bytes() == rowwise_csv(header, [*shared, column]).encode()
    textio.write_csv(paths[0], header, [*shared, varying[0]])
    assert paths[0].read_bytes() == rowwise_csv(header, [*shared, varying[0]]).encode()
