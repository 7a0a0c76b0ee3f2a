import hashlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from folheat.errors import FingerprintError, ValidationError
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat.neural import (
    ACTIVATIONS,
    ARCHITECTURES,
    ModelBundle,
    NetGroup,
    Workspace,
    _act_in_place,
    _elementwise_stencils,
    count_params,
    forward_batch,
    forward_with_tape,
    init_model,
    load_model,
    save_model,
)


LEFT_RIGHT = DirichletSpec({"left": 1.0, "right": 0.0})


def act(kind, x):
    z = np.array([x], dtype=np.float64)
    _act_in_place(kind, z)
    return z[0]


class TestActivations:
    def test_swish_values(self):
        assert act("swish", 0.0) == 0.0
        assert act("swish", 1.0) == pytest.approx(0.7310585786300049)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_grad_matches_finite_differences(self, kind):
        h = 1e-6
        points = [-2.0, -0.5, 0.0, 0.5, 2.0]
        if kind == "relu":
            points.remove(0.0)  # the kink has no two-sided derivative
        for x in points:
            fd = (act(kind, x + h) - act(kind, x - h)) / (2 * h)
            z, grad = np.array([x]), np.empty(1)
            _act_in_place(kind, z, grad, np.empty(1))
            assert grad[0] == pytest.approx(fd, abs=1e-8)
            assert z[0] == act(kind, x)  # the activation, left in z

    def test_unknown_kind(self, tmp_path, grid3):
        mesh, dofs = grid3
        path = tmp_path / "m.folmodel"
        save_model(init_model("separated", mesh, dofs, seed=0), path)
        path.write_bytes(path.read_bytes().replace(b"activation swish", b"activation gelu", 1))
        with pytest.raises(ValidationError, match="unknown activation 'gelu'"):
            load_model(path)


class TestInitAndCounts:
    def test_paper_parameter_counts(self, grid11):
        mesh, dofs = grid11
        fc = init_model("fully_connected", mesh, dofs, seed=0)
        sep = init_model("separated", mesh, dofs, seed=0)
        assert count_params(fc) == 121_139
        assert count_params(sep) == 110_979

    def test_separated_count_formula(self, grid11):
        mesh, dofs = grid11
        sep = init_model("separated", mesh, dofs, seed=0)
        per_net = 99 * 10 + 10 + 10 * 10 + 10 + 10 * 1 + 1
        assert count_params(sep) == 99 * per_net

    def test_single_layer_count(self):
        group = NetGroup(
            np.arange(3), None, [np.zeros((1, 3, 2))], [np.zeros((1, 3))]
        )
        m = ModelBundle("fully_connected", "swish", 3, [group], "fp", 0.05)
        assert count_params(m) == 9

    def test_same_seed_identical(self, grid11):
        mesh, dofs = grid11
        a = init_model("separated", mesh, dofs, seed=42)
        b = init_model("separated", mesh, dofs, seed=42)
        assert np.array_equal(a.params_flat(), b.params_flat())
        c = init_model("separated", mesh, dofs, seed=43)
        assert not np.array_equal(a.params_flat(), c.params_flat())

    def test_zero_biases(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=0)
        for g in model.groups:
            for b in g.biases:
                assert np.all(b == 0.0)

    def test_elementwise_stencil_sizes(self, grid11):
        mesh, dofs = grid11
        model = init_model("elementwise", mesh, dofs, seed=0)
        sizes = sorted({g.in_slots.shape[1] for g in model.groups})
        assert sizes == [4, 6, 9]  # near both boundaries, near one, interior

    @pytest.mark.parametrize("grid", [21, 81, None], ids=["21x21", "81x81", "irregular"])
    def test_elementwise_stencils_match_node_set_loop(self, irregular_mesh, grid):
        if grid is None:
            mesh = irregular_mesh
            dofs = build_dof_map(mesh, DirichletSpec({"inner": 1.0, "outer": 0.0}))
        else:
            mesh = build_structured_grid(grid, grid, 1.0, 1.0)
            dofs = build_dof_map(mesh, LEFT_RIGHT)
        neighbors = [set() for _ in range(mesh.n_nodes)]  # the set-per-node reference
        for conn in mesh.elems:
            ids = conn.tolist()
            for nid in ids:
                neighbors[nid].update(ids)
        expected = [np.array(sorted(int(dofs.node_to_slot[nb]) for nb in neighbors[node]
                                    if dofs.node_to_slot[nb] >= 0), dtype=np.int64)
                    for node in dofs.free]
        stencils = [None] * dofs.n_free
        by_size = _elementwise_stencils(mesh, dofs)
        assert list(by_size) == sorted({st.size for st in expected})
        for size, (slots, rows) in by_size.items():
            assert slots.dtype == rows.dtype == np.int64 and rows.shape == (slots.size, size)
            for slot, row in zip(slots.tolist(), rows):
                stencils[slot] = row
        assert all(np.array_equal(a, b) for a, b in zip(stencils, expected))

    def test_unknown_arch_and_activation(self, grid3):
        mesh, dofs = grid3
        with pytest.raises(ValidationError):
            init_model("resnet", mesh, dofs)
        with pytest.raises(ValidationError):
            init_model("separated", mesh, dofs, activation="gelu")

    @pytest.mark.parametrize("dt", [-0.05, 0.0, float("nan"), float("inf")])
    def test_bad_dt_refused(self, grid3, dt):
        mesh, dofs = grid3
        with pytest.raises(ValidationError, match="dt must be positive and finite"):
            init_model("separated", mesh, dofs, dt=dt)


class TestForward:
    def test_zero_params_zero_output(self, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=0)
        model.set_params_flat(np.zeros(count_params(model)))
        out = forward_batch(model, np.ones(dofs.n_free))
        assert np.array_equal(out, np.zeros(dofs.n_free))

    def test_identity_embedding_with_relu(self, grid3):
        # hand-set 1-hidden-layer net: relu(I x) then I back out reproduces x >= 0
        mesh, dofs = grid3
        n = dofs.n_free
        model = init_model("fully_connected", mesh, dofs, hidden_spec=(n,), activation="relu")
        g = model.groups[0]
        g.weights[0][0] = np.eye(n)
        g.biases[0][0] = 0.0
        g.weights[1][0] = np.eye(n)
        g.biases[1][0] = 0.0
        x = np.array([0.3, 0.0, 1.7])
        assert np.allclose(forward_batch(model, x), x)

    def test_dimension_mismatch(self, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=0)
        with pytest.raises(ValidationError):
            forward_batch(model, np.zeros(dofs.n_free + 1))

    def test_pure_function(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=1)
        x = np.random.default_rng(0).uniform(0, 1, dofs.n_free)
        assert np.array_equal(forward_batch(model, x), forward_batch(model, x))

    def test_elementwise_locality(self, grid11):
        # output i must ignore inputs outside its stencil
        mesh, dofs = grid11
        model = init_model("elementwise", mesh, dofs, seed=2)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, dofs.n_free)
        base = forward_batch(model, x)
        for j in (0, 17, 50, 98):
            bumped = x.copy()
            bumped[j] += 0.25
            delta = forward_batch(model, bumped) - base
            for g in model.groups:
                for out_slot, in_slots in zip(g.out_slots, g.in_slots):
                    if j not in in_slots:
                        assert delta[out_slot] == 0.0

    def test_separated_reads_full_field(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=2)
        x = np.random.default_rng(4).uniform(0, 1, dofs.n_free)
        bumped = x.copy()
        bumped[0] += 0.25
        delta = forward_batch(model, bumped) - forward_batch(model, x)
        assert np.count_nonzero(delta) > dofs.n_free // 2


class TestTape:
    def test_tape_output_matches_forward(self, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=5)
        x = np.random.default_rng(5).uniform(0, 1, (4, dofs.n_free))
        out_plain = forward_batch(model, x)
        ws = Workspace()
        out_tape, tape = forward_with_tape(model, x, ws)
        assert np.array_equal(out_plain, out_tape)
        gt = tape.group_tapes[0]
        # a and its derivative g per hidden layer, in the workspace's tape; no z is taped
        assert gt.preacts == [] and len(gt.acts) == len(gt.act_aux) == 2
        assert gt.acts[0].shape == gt.act_aux[0].shape == (dofs.n_free, 4, 10)
        assert all(np.shares_memory(a, ws.tape) for a in gt.acts + gt.act_aux)

    def test_inference_keeps_no_tape(self, grid11):
        # one tape array of (99 nets, 3000 samples, 10) is 23.8 MB; the taped
        # pass keeps four, inference at most z and expit(z) of one layer
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=5)
        x = np.random.default_rng(5).uniform(0, 1, (3000, dofs.n_free))
        out, peak = traced(forward_batch, model, x)
        assert peak <= 2.5 * 99 * 3000 * 10 * 8, peak
        assert np.array_equal(out, forward_with_tape(model, x)[0])

    @pytest.mark.parametrize("arch, hidden", [("elementwise", None), ("fully_connected", (990, 990))])
    def test_inference_of_every_wiring_keeps_no_tape(self, grid11, arch, hidden):
        # the bound above, sized by the largest group: a group's pass holds at most
        # two of its layers, and elementwise nets are grouped by stencil size
        mesh, dofs = grid11
        model = init_model(arch, mesh, dofs, hidden, seed=5)
        n_nets = max(g.n_nets for g in model.groups)
        width = max(w.shape[1] for g in model.groups for w in g.weights[:-1])
        x = np.random.default_rng(5).uniform(0, 1, (3000, dofs.n_free))
        out, peak = traced(forward_batch, model, x)
        assert peak <= 2.5 * n_nets * 3000 * width * 8, peak
        assert np.array_equal(out, forward_with_tape(model, x)[0])

    @pytest.mark.parametrize("batch", [1, 7])
    @pytest.mark.parametrize("hidden", [None, (1,), (3, 1, 2), (2, 7)], ids=str)
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_inference_is_the_taped_pass(self, grid11, arch, activation, hidden, batch):
        mesh, dofs = grid11
        model = init_model(arch, mesh, dofs, hidden, activation, seed=8)
        x = np.random.default_rng(batch).uniform(-0.5, 1.5, (batch, dofs.n_free))
        assert forward_batch(model, x).tobytes() == forward_with_tape(model, x)[0].tobytes()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, grid3):
        mesh, dofs = grid3
        for arch in ("separated", "elementwise", "fully_connected"):
            model = init_model(arch, mesh, dofs, seed=6, dt=0.025)
            path = tmp_path / f"{arch}.folmodel"
            save_model(model, path)
            back = load_model(path, dofs)
            assert back.arch == arch
            assert back.dt == 0.025
            assert count_params(back) == count_params(model)
            x = np.random.default_rng(6).uniform(0, 1, dofs.n_free)
            assert np.array_equal(forward_batch(back, x), forward_batch(model, x))

    def test_corrupted_header(self, tmp_path, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=0)
        path = tmp_path / "m.folmodel"
        save_model(model, path)
        path.write_bytes(path.read_bytes().replace(b"folmodel 2", b"folmodel 9", 1))
        with pytest.raises(ValidationError, match="version"):
            load_model(path)

    def test_wrong_grid_fingerprint(self, tmp_path, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=0)
        path = tmp_path / "m.folmodel"
        save_model(model, path)
        other = build_dof_map(
            build_structured_grid(21, 21, 1.0, 1.0), DirichletSpec({"left": 1.0, "right": 0.0})
        )
        with pytest.raises(FingerprintError):
            load_model(path, other)


# sha256 of the 21x21 seed-1 checkpoints (dt 0.05, left 1 / right 0)
CHECKPOINT_SHA256 = {
    "fully_connected": "1ee2ffd3a6fbac3778a456b564c8b1c8fd4f4e04135fbdab4614428e486d19df",
    "elementwise": "da1d8ff5733e0226d80246785aa484589732023421e69d438cbbb1d62b14c36a",
    "separated": "2ba8eeff5e2cfe3dde1e45a154035b9f01dc6939eb8b107ae31b5a2e025451e2",
}


def traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def npy_bytes(array) -> bytes:
    """array as one .npy record (version 1.0) in its own dtype and order."""
    f = io.BytesIO()
    np.lib.format.write_array(f, array, version=(1, 0), allow_pickle=False)
    return f.getvalue()


@pytest.fixture(scope="module")
def separated21(tmp_path_factory):
    """The 21x21 seed-1 separated model (1.64M parameters) and its 13.2 MB
    checkpoint, written under tracemalloc: (model, dofs, path, save peak)."""
    mesh = build_structured_grid(21, 21, 1.0, 1.0)
    dofs = build_dof_map(mesh, LEFT_RIGHT)
    model = init_model("separated", mesh, dofs, seed=1)
    path = tmp_path_factory.mktemp("separated21") / "separated.folmodel"
    _, peak = traced(save_model, model, path)
    return model, dofs, path, peak


class TestCheckpointStreaming:
    """save_model writes the arrays from the model's own buffers, and
    load_model reads each record straight into its final array: neither
    holds a second copy of the parameters."""

    def test_save_and_load_peak_memory(self, separated21):
        model, dofs, path, save_peak = separated21
        size = path.stat().st_size
        assert save_peak <= 0.1 * size
        back, load_peak = traced(load_model, path, dofs)
        assert load_peak <= 1.1 * size  # the arrays (1.0x) and nothing the size of one
        assert back.params_flat().tobytes() == model.params_flat().tobytes()

    def test_commented_checkpoint_loads_the_same(self, separated21, tmp_path):
        """Between its first line and its ``end`` line, the text header may
        carry comments, as the token formats do."""
        model, dofs, path, _ = separated21
        data = path.read_bytes()
        cut = data.index(b"\nend\n") + 1
        first, *lines = data[:cut].decode().splitlines(keepends=True)
        lines = [first, "# a note\n"] + [line.replace("\n", "  # trailing note\n") for line in lines]
        commented = tmp_path / "commented.folmodel"
        commented.write_bytes("".join(lines).encode() + b"# the end\n" + data[cut:])
        back, peak = traced(load_model, commented, dofs)
        assert peak <= 1.1 * commented.stat().st_size
        assert back.params_flat().tobytes() == model.params_flat().tobytes()

    @pytest.mark.parametrize("arch", sorted(CHECKPOINT_SHA256))
    def test_written_bytes_pinned(self, arch, separated21, tmp_path):
        if arch == "separated":
            path = separated21[2]
        else:
            _, dofs, _, _ = separated21
            model = init_model(arch, build_structured_grid(21, 21, 1.0, 1.0), dofs, seed=1)
            path = tmp_path / f"{arch}.folmodel"
            save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256[arch]


# the records of the 3x3 elementwise checkpoint below, in file order
RECORDS = [f"group {gi} {what}" for gi in range(2) for what in (
    "output slots", "input slots", "layer 0 weights", "layer 0 biases",
    "layer 1 weights", "layer 1 biases")]


class TestCheckpointRefusals:
    """Edits to a 3x3 elementwise checkpoint (hidden (2,)): its 18-line header
    declares group 0 (stencil 2, slots 0 and 2) on lines 8-12 and group 1
    (stencil 3, slot 1) on lines 13-17; the 12 RECORDS follow."""

    @pytest.fixture()
    def edit(self, tmp_path, grid3):
        mesh, dofs = grid3
        path = tmp_path / "m.folmodel"
        model = init_model("elementwise", mesh, dofs, hidden_spec=(2,), seed=0)
        save_model(model, path)
        data = path.read_bytes()
        lines = data[: data.index(b"\nend\n") + 5].decode().splitlines()
        records = {}
        for g, names in zip(model.groups, (RECORDS[:6], RECORDS[6:])):
            arrays = [g.out_slots, g.in_slots]
            for w, b in zip(g.weights, g.biases):
                arrays += [w, b]
            records.update(zip(names, arrays))
        assert lines[9:11] == ["input 2", "layer 0 out 2 in 2"] and lines[16:] == [
            "layer 1 out 1 in 2", "end"]
        # the layout: the header, then each record as np.save writes it
        assert ("\n".join(lines) + "\n").encode() + b"".join(map(npy_bytes, records.values())) == data

        def apply(changes, cut=None):
            """changes: {header line number: new line, or (token index, new
            token); record name: new array, raw record bytes, (index, new
            value), or None to drop the record}. cut keeps that many bytes
            of the file."""
            edited, arrays = list(lines), dict(records)
            for key, change in changes.items():
                if isinstance(key, str):
                    if isinstance(change, tuple):
                        index, value = change
                        change = arrays[key].copy()
                        change[index] = value
                    arrays[key] = change
                    continue
                if isinstance(change, tuple):
                    tokens = edited[key - 1].split()
                    tokens[change[0]] = change[1]
                    change = " ".join(tokens)
                edited[key - 1] = change
            records_bytes = [
                a if isinstance(a, bytes) else npy_bytes(a) for a in arrays.values() if a is not None]
            path.write_bytes((("\n".join(edited) + "\n").encode() + b"".join(records_bytes))[:cut])
            return path

        return apply

    @pytest.mark.parametrize("lineno, index, token, message", [
        (6, 1, "nan", "expected finite dt, got 'nan'"),
        (6, 1, "-0.05", "dt must be positive, got -0.05"),
        (6, 1, "0", "dt must be positive, got 0.0"),
        (9, 1, "two", "expected outslots, got 'two'"),
        (10, 1, "x", "expected 'full' or a positive stencil size, got 'x'"),
        (16, 5, "0", "in must be positive, got 0"),
    ])
    def test_bad_token_names_file_and_line(self, edit, lineno, index, token, message):
        path = edit({lineno: (index, token)})
        with pytest.raises(ValidationError, match=re.escape(f"{path}: line {lineno}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("name, index, value", [
        ("group 0 layer 0 weights", (0, 1, 1), np.nan),
        ("group 1 layer 1 weights", (0, 0, 1), -np.inf),
        ("group 0 layer 1 biases", (1, 0), np.inf),
        ("group 1 layer 0 biases", (0, 1), np.nan),
    ])
    def test_non_finite_record_names_file(self, edit, name, index, value):
        path = edit({name: (index, value)})
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {name} hold a non-finite value")):
            load_model(path)

    @pytest.mark.parametrize("changes, cut, message", [
        ({"group 0 layer 0 weights": np.zeros((2, 2, 2), np.float32)}, None,
         "group 0 layer 0 weights is a <f4 array of shape (2, 2, 2), expected <f8 of shape (2, 2, 2)"),
        ({"group 0 layer 0 weights": np.zeros((2, 2, 2), ">f8")}, None,
         "group 0 layer 0 weights is a >f8 array of shape (2, 2, 2), expected <f8"),
        ({"group 1 input slots": np.array([[0, 1, 2]], np.int32)}, None,
         "group 1 input slots is a <i4 array of shape (1, 3), expected <i8"),
        ({"group 0 layer 1 weights": np.asfortranarray(np.zeros((2, 2, 1)))}, None,
         "group 0 layer 1 weights is a Fortran-order <f8 array of shape (2, 2, 1), expected <f8 of "
         "shape (2, 1, 2)"),
        ({"group 1 layer 0 biases": np.zeros((1, 3))}, None,
         "group 1 layer 0 biases is a <f8 array of shape (1, 3), expected <f8 of shape (1, 2)"),
        ({"group 1 layer 1 biases": None}, None,
         "not a readable .npy array (group 1 layer 1 biases): EOF: reading magic string"),
        ({"group 0 layer 0 biases": None}, None,
         "group 0 layer 0 biases is a <f8 array of shape (2, 1, 2), expected <f8 of shape (2, 2)"),
        ({}, -4, "group 1 layer 1 biases needs 8 bytes, the file has 4 left"),
        ({}, -9, "not a readable .npy array (group 1 layer 1 biases): "),
        ({"group 0 output slots": b"\x93NUMPY\x02\x00" + npy_bytes(np.zeros(2, np.int64))[8:]}, None,
         "not a readable .npy array (group 0 output slots): format version (2, 0), expected (1, 0)"),
        ({"group 0 input slots": b"PK\x03\x04" + bytes(60)}, None,
         "not a readable .npy array (group 0 input slots): the magic string is not correct"),
    ], ids=["float32", "big-endian", "int32-slots", "fortran-order", "shape", "missing-last",
            "missing-middle", "cut-in-data", "cut-in-header", "npy-2.0", "not-npy"])
    def test_bad_record_names_file(self, edit, changes, cut, message):
        """A record of another dtype, byte order, storage order or shape, or one
        that is missing, cut short or not .npy, is refused before its data is
        read."""
        path = edit(changes, cut)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("lineno, token, what", [
        (9, "999999999999", "output slot"), (10, "99999999999", "input slot"),
        (17, "99999999999", "weight"),
    ])
    def test_huge_count_is_end_of_file(self, edit, lineno, token, what):
        """A huge count in the header whose record declares the same shape is
        refused as data running past the end of the file, before any array of
        that size is allocated."""
        name, shape, descr = {
            "output slot": ("group 0 output slots", (999999999999,), "<i8"),
            "input slot": ("group 0 input slots", (2, 99999999999), "<i8"),
            "weight": ("group 1 layer 1 weights", (1, 1, 99999999999), "<f8"),
        }[what]
        record = io.BytesIO()  # the record's header alone
        np.lib.format.write_array_header_1_0(
            record, {"descr": descr, "fortran_order": False, "shape": shape})
        path = edit({lineno: (-1, token), name: record.getvalue()})
        result, peak = traced(lambda: pytest.raises(ValidationError, load_model, path))
        assert re.fullmatch(re.escape(f"{path}: {name} needs {8 * math.prod(shape)} bytes, the file has ")
                            + r"\d+ left", str(result.value))
        assert peak < 1 << 20

    @pytest.mark.parametrize("lineno, index, token", [(8, 3, "99999999999"), (11, 3, "99999999999")])
    def test_huge_header_count_refused_before_allocation(self, edit, lineno, index, token):
        """A huge nets or out count in the header alone fails its record's
        shape check: nothing of the declared size is allocated."""
        path = edit({lineno: (index, token)})
        result, peak = traced(lambda: pytest.raises(ValidationError, load_model, path))
        assert f"{path}: group 0 " in str(result.value) and token in str(result.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize("changes, message", [
        ({"group 0 output slots": np.array([0, 7])},
         "output slots of all groups must be a permutation of 0..2"),
        ({"group 0 output slots": np.array([0, 1])},
         "output slots of all groups must be a permutation of 0..2"),
        ({"group 0 input slots": np.array([[0, 1], [1, 3]])}, "group 0 input slots must lie in [0, 3)"),
        ({10: "input 1", "group 0 input slots": np.array([[0], [2]])},
         "group 0 layer 0 reads 2 inputs, expected 1"),
        ({17: "layer 1 out 2 in 1", "group 1 layer 1 weights": np.zeros((1, 2, 1)),
          "group 1 layer 1 biases": np.zeros((1, 2))}, "group 1 layer 1 reads 1 inputs, expected 2"),
        ({17: "layer 1 out 2 in 2", "group 1 layer 1 weights": np.full((1, 2, 2), 0.5),
          "group 1 layer 1 biases": np.zeros((1, 2))}, "group 1 has 1 nets of 2 outputs for 1 output slots"),
    ])
    def test_inconsistent_wiring_refused(self, edit, changes, message):
        path = edit(changes)
        with pytest.raises(ValidationError, match=re.escape(f"{path}: {message}")):
            load_model(path)


class TestIntrospection:
    def test_net_layers_shapes(self, grid3):
        mesh, dofs = grid3
        model = init_model("separated", mesh, dofs, seed=0)
        (group,) = model.groups
        assert [w.shape[1:] for w in group.weights] == [(10, 3), (10, 10), (1, 10)]
        assert [b.shape[1:] for b in group.biases] == [(10,), (10,), (1,)]

    def test_input_map_orderings(self, grid3):
        mesh, dofs = grid3
        model = init_model("elementwise", mesh, dofs, seed=0)
        out_slots = np.concatenate([g.out_slots for g in model.groups])
        assert np.array_equal(np.sort(out_slots), np.arange(dofs.n_free))
        for g in model.groups:
            for slots in g.in_slots:
                assert np.all(np.diff(slots) > 0)
