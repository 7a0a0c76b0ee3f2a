"""Mutation fuzzing of the four parsers: folmesh, folmodel, the INI run
config and the nodal CSV. Each mutant of a valid text deletes, replaces or
duplicates a token, or truncates the text; a folmodel mutant also has its
binary records cut short or overwritten byte by byte. It must either parse
or raise ValidationError, and what parses must be usable. A nodal CSV
mutant must load or be refused exactly as the row-by-row reader did."""

import csv
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folheat.config import load_run_config
from folheat.errors import ValidationError
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid, load_mesh, serialize_mesh
from folheat.neural import forward_batch, init_model, load_model, save_model
from folheat.textio import read_nodal_csv, read_text, write_csv

FUZZ = settings(database=None, derandomize=True, max_examples=300, deadline=None)

# replacement tokens beyond those of the text itself, drawn half the time
NUMBERS = ["0", "-1", "2", "7", "0.5", "-0", "nan", "inf", "-inf", "1e999", str(2**64), "x", "#"]
INI = ["%", "%(x)s", "=", ":", ";", ",", "[mesh]", "[DEFAULT]", "Left", "file"]

CONFIG = """\
[mesh]
source = structured
nx = 3
ny = 4
width = 1.0
height = 2.0

[dirichlet]
left = 1.0
right = 0.0

[conductivity]
kind = inclusions   ; homogeneous | inclusions | file
circles = 0.3,0.65,0.17; 0.7,0.3,0.15
inclusion = 0.1

[material]
rho = 10.0

[samples]
fourier = 6
n_terms = 4
offset_ranges = 0:0.5, 0.5:1

[train]
arch = separated
hidden = 10 10
dt = 0.05
lr = 0.001

[run]
seed = 9
"""


@st.composite
def mutants(draw, text, specials=NUMBERS):
    pieces = re.split(r"(\s+)", text)  # tokens at even indices, whitespace between
    vocabulary = st.sampled_from(sorted(set(text.split()))) | st.sampled_from(specials)
    for _ in range(draw(st.integers(1, 3))):
        tokens = [i for i in range(0, len(pieces), 2) if pieces[i]]
        if not tokens:
            break
        i = draw(st.sampled_from(tokens))
        op = draw(st.sampled_from(["delete", "replace", "duplicate", "truncate"]))
        if op == "delete":
            pieces[i] = ""
        elif op == "replace":
            pieces[i] = draw(vocabulary)
        elif op == "duplicate":
            pieces[i] = f"{pieces[i]} {pieces[i]}"
        else:
            pieces[i:] = [pieces[i][: draw(st.integers(0, len(pieces[i])))]]
    return "".join(pieces)


@FUZZ
@given(text=mutants("# 3x3 unit square\n" + serialize_mesh(build_structured_grid(3, 3, 1.0, 1.0))))
def test_mesh_mutants_parse_or_refuse(text):
    try:
        mesh = load_mesh(text)
    except ValidationError:
        return
    assert mesh.nodes.shape == (mesh.n_nodes, 2) and np.isfinite(mesh.nodes).all()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class Checkpoint:
    """A saved checkpoint: its text header, its .npy records, and the (start,
    data start, end) byte offsets of each record."""

    def __init__(self, path):
        data = path.read_bytes()
        cut = data.index(b"\nend\n") + 5
        self.name, self.header, self.records, self.spans = path.name, data[:cut].decode(), data[cut:], []
        f = io.BytesIO(data)
        f.seek(cut)
        while (start := f.tell()) < len(data):
            np.lib.format.read_magic(f)
            shape, _, dtype = np.lib.format.read_array_header_1_0(f)
            self.spans.append((start, f.tell(), f.tell() + dtype.itemsize * int(np.prod(shape))))
            f.seek(self.spans[-1][2])

    def __repr__(self):
        return f"<{self.name} checkpoint>"


@pytest.fixture(scope="module")
def checkpoints(work):
    """The 9x9 elementwise and separated checkpoints (110 and 380 kB)."""
    mesh = build_structured_grid(9, 9, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    for arch in ("elementwise", "separated"):
        save_model(init_model(arch, mesh, dofs, seed=0), work / arch)
    return [Checkpoint(work / arch) for arch in ("elementwise", "separated")]


def load_or_refuse(path, size):
    """load_model(path), or None if it raises ValidationError; either way the
    load may allocate at most twice size, that of the checkpoint the file was
    made from."""
    tracemalloc.start()
    try:
        return load_model(path)
    except ValidationError:
        return None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * size


def assert_usable(model):
    assert np.isfinite(model.dt) and model.dt > 0  # mutants reach dt with "0", "-1", "-0"
    assert np.isfinite(model.params_flat()).all()
    x = np.random.default_rng(0).uniform(0.0, 1.0, (2, model.n_free))
    with np.errstate(all="ignore"):  # finite weights may still overflow
        assert forward_batch(model, x).shape == x.shape


@FUZZ
@given(data=st.data())
def test_model_mutants_parse_or_refuse(checkpoints, work, data):
    """Mutants of the text header, the records left as they are."""
    ck = data.draw(st.sampled_from(checkpoints))
    path = work / "m.folmodel"
    path.write_bytes(data.draw(mutants(ck.header)).encode() + ck.records)
    if (model := load_or_refuse(path, len(ck.header) + len(ck.records))) is not None:
        assert_usable(model)


@FUZZ
@given(data=st.data())
def test_truncated_model_refused(checkpoints, work, data):
    ck = data.draw(st.sampled_from(checkpoints))
    whole = ck.header.encode() + ck.records
    path = work / "m.folmodel"
    path.write_bytes(whole[: data.draw(st.integers(0, len(whole) - 1))])
    assert load_or_refuse(path, len(whole)) is None


@FUZZ
@given(data=st.data())
def test_model_record_overwrites_load_or_refuse(checkpoints, work, data):
    """Random bytes written over record headers and data: a model that loads
    holds exactly the bytes of the overwritten records."""
    ck = data.draw(st.sampled_from(checkpoints))
    whole = bytearray(ck.header.encode() + ck.records)
    for _ in range(data.draw(st.integers(1, 4))):
        start, data_start, end = data.draw(st.sampled_from(ck.spans))
        lo, hi = data.draw(st.sampled_from([(start, data_start), (data_start, end)]))
        whole[data.draw(st.integers(lo, hi - 1))] = data.draw(st.integers(0, 255))
    path = work / "m.folmodel"
    path.write_bytes(whole)
    if (model := load_or_refuse(path, len(whole))) is None:
        return
    assert_usable(model)
    stored = []
    for g in model.groups:
        stored += [g.out_slots] + ([] if g.in_slots is None else [g.in_slots])
        stored += [a for w, b in zip(g.weights, g.biases) for a in (w, b)]
    assert [whole[d:e] for _, d, e in ck.spans] == [a.tobytes() for a in stored]


# accessor name -> the arguments it is called with
GETTERS = {"dirichlet": (), "material": (), "fourier_params": (), "sample_counts": (),
           "hidden_spec": (), "train_config": (0,)}
PROPERTIES = ("seed", "dt", "arch", "activation")


@FUZZ
@given(text=mutants(CONFIG, NUMBERS + INI))
def test_config_mutants_load_and_answer_or_refuse(work, text):
    path = work / "run.cfg"
    path.write_text(text)
    try:
        cfg = load_run_config(path)
    except ValidationError:
        return
    calls = [lambda name=name, args=args: getattr(cfg, name)(*args) for name, args in GETTERS.items()]
    calls += [lambda name=name: getattr(cfg, name) for name in PROPERTIES]
    try:
        mesh = cfg.build_mesh()
    except ValidationError:
        mesh = build_structured_grid(3, 3, 1.0, 1.0)
    calls.append(lambda: cfg.conductivity(mesh))
    for call in calls:
        try:
            call()
        except ValidationError:
            pass


def rowwise_read_nodal_csv(path, columns, n_nodes=None):
    """The row-by-row reader read_nodal_csv replaced, kept as its reference:
    one dict entry per row, checked as it is read."""
    source, text = str(path), read_text(path)
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
        if any("_" in cell for cell in row[: len(columns)]):  # 1_0 is no CSV number
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


FIELD_COLUMNS = ["node_id", "x", "y", "T"]
FIELD_MESH = build_structured_grid(3, 3, 1.0, 1.0)
# cells a mutant may write: junk, numbers int() or float() take in odd forms,
# ids out of range or beyond int64, and one longer than csv.field_size_limit()
CELLS = ["", " ", "x", "nan", "-inf", "1e999", "0x1", "1_0", " 4 ", "+3", "-0", "0.0", "1.5e-3",
         "-1", "8", "9", str(2**64), "9" * 5000, "7" * 200_000]


@st.composite
def csv_mutants(draw, text):
    """A CSV text with 1-4 rows deleted, duplicated or swapped, blank lines
    added, a cell quoted or replaced, or its last row cut short; its lines
    end in LF or CRLF."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "blank", "quote", "cell"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            j = min(j, len(lines) - 1)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "blank":
            lines.insert(j, draw(st.sampled_from(["", ",", " ", '""'])))
        else:
            cells = lines[i].split(",")
            k = draw(st.integers(0, len(cells) - 1))
            cells[k] = f'"{cells[k]}"' if op == "quote" else draw(st.sampled_from(CELLS))
            lines[i] = ",".join(cells)
        if not lines:
            break
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    out = "".join(line + eol for line in lines)
    if lines and draw(st.booleans()):  # cut the last row short
        out = out[: len(out) - draw(st.integers(1, len(lines[-1]) + len(eol)))]
    return out


def outcome(read, path, n_nodes):
    """What a reader makes of path: its source, values and lines, or the
    message it refuses the file with."""
    try:
        source, values, lines = read(path, FIELD_COLUMNS, n_nodes)
    except ValidationError as exc:
        return str(exc)
    return source, values.shape, values.tobytes(), lines.dtype, lines.tolist()


@FUZZ
@given(data=st.data())
def test_nodal_csv_mutants_read_as_row_by_row(work, data):
    path = work / "field.csv"
    write_csv(path, FIELD_COLUMNS, [range(FIELD_MESH.n_nodes), *FIELD_MESH.nodes.T,
                                    np.linspace(-1.0, 1.0, FIELD_MESH.n_nodes)])
    path.write_bytes(data.draw(csv_mutants(path.read_text())).encode())
    n_nodes = data.draw(st.sampled_from([None, FIELD_MESH.n_nodes]))
    got = outcome(read_nodal_csv, path, n_nodes)
    try:
        want = outcome(rowwise_read_nodal_csv, path, n_nodes)
    except csv.Error as exc:  # the row-by-row reader let csv's own error escape
        assert isinstance(got, str) and got.startswith(f"{path} line ") and got.endswith(f": {exc}")
        return
    assert got == want

