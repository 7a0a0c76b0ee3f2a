import hashlib
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from folheat.errors import FingerprintError, ValidationError
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid, load_mesh
from folheat.neural import (
    ACTIVATIONS,
    ModelBundle,
    NetGroup,
    _act_forward,
    _act_grad_cached,
    _elementwise_stencils,
    count_params,
    forward_batch,
    forward_with_tape,
    init_model,
    load_model,
    save_model,
)


DATA_MESH = Path(__file__).resolve().parent.parent / "data" / "irregular.folmesh"
LEFT_RIGHT = DirichletSpec({"left": 1.0, "right": 0.0})


def act(kind, x):
    return _act_forward(kind, np.float64(x))[0]


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
            z = np.float64(x)
            grad = _act_grad_cached(kind, z, _act_forward(kind, z)[1], np.empty(()))
            assert grad == pytest.approx(fd, abs=1e-8)

    def test_unknown_kind(self, tmp_path, grid3):
        mesh, dofs = grid3
        path = tmp_path / "m.folmodel"
        save_model(init_model("separated", mesh, dofs, seed=0), path)
        path.write_text(path.read_text().replace("activation swish", "activation gelu", 1))
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
    def test_elementwise_stencils_match_node_set_loop(self, grid):
        if grid is None:
            mesh = load_mesh(DATA_MESH.read_text())
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
        out_tape, tape = forward_with_tape(model, x)
        assert np.array_equal(out_plain, out_tape)
        gt = tape.group_tapes[0]
        # a and its derivative g per hidden layer; no z is taped
        assert gt.preacts == [] and len(gt.acts) == len(gt.act_aux) == 2
        assert gt.acts[0].shape == gt.act_aux[0].shape == (dofs.n_free, 4, 10)

    def test_inference_keeps_no_tape(self, grid11):
        # one tape array of (99 nets, 3000 samples, 10) is 23.8 MB; the taped
        # pass keeps four, inference at most z and expit(z) of one layer
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=5)
        x = np.random.default_rng(5).uniform(0, 1, (3000, dofs.n_free))
        out, peak = traced(forward_batch, model, x)
        assert peak <= 2.5 * 99 * 3000 * 10 * 8, peak
        assert np.array_equal(out, forward_with_tape(model, x)[0])


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
        text = path.read_text().replace("folmodel 1", "folmodel 9", 1)
        path.write_text(text)
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


# sha256 of the 21x21 seed-1 checkpoints (dt 0.05, left 1 / right 0): the
# written bytes do not depend on how the writer chunks its output
CHECKPOINT_SHA256 = {
    "fully_connected": "5da8071ff6ec04df3c51a5bbfe4cbfe65a107b8426a505510db8b3d6f29bf3c9",
    "elementwise": "e15a9ccee1869a01e149ea4397912fcf76ce51bf70aeed55b603334fe5c64385",
    "separated": "532edbd8183ecd7bba2f17005627d8e6ee8d149b957b4eeb92ed3cf8e2b4fb19",
}


def traced(fn, *args):
    """fn(*args) and the peak of the memory it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def separated21(tmp_path_factory):
    """The 21x21 seed-1 separated model (1.64M parameters) and its 33.9 MB
    checkpoint, written under tracemalloc: (model, dofs, path, save peak)."""
    mesh = build_structured_grid(21, 21, 1.0, 1.0)
    dofs = build_dof_map(mesh, LEFT_RIGHT)
    model = init_model("separated", mesh, dofs, seed=1)
    path = tmp_path_factory.mktemp("separated21") / "separated.folmodel"
    _, peak = traced(save_model, model, path)
    return model, dofs, path, peak


class TestCheckpointStreaming:
    """save_model and load_model stream the text in bounded windows: neither
    holds a Python object per value of the checkpoint."""

    def test_save_and_load_peak_memory(self, separated21):
        model, dofs, path, save_peak = separated21
        size = path.stat().st_size
        assert save_peak <= 1.0 * size
        back, load_peak = traced(load_model, path, dofs)
        assert load_peak <= 0.5 * size  # the arrays (0.39x) and one window of text
        assert back.params_flat().tobytes() == model.params_flat().tobytes()

    def test_commented_checkpoint_loads_the_same(self, separated21, tmp_path):
        model, dofs, path, _ = separated21
        lines = path.read_text().splitlines(keepends=True)
        for i in range(0, len(lines), 777):
            lines[i] = lines[i].replace("\n", "  # trailing note\n")
        for i in reversed(range(0, len(lines), 1000)):
            lines.insert(i, "# note\n")
        commented = tmp_path / "commented.folmodel"
        commented.write_text("".join(lines) + "# the end\n#\n")
        del lines
        back, peak = traced(load_model, commented, dofs)
        assert peak <= 0.5 * commented.stat().st_size
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


class TestCheckpointRefusals:
    """Edits to a 3x3 elementwise checkpoint (hidden (2,)): group 0 has stencil
    2 (slots 0, 2) on lines 8-23, group 1 stencil 3 (slot 1) on lines 24-38."""

    @pytest.fixture()
    def edit(self, tmp_path, grid3):
        mesh, dofs = grid3
        path = tmp_path / "m.folmodel"
        save_model(init_model("elementwise", mesh, dofs, hidden_spec=(2,), seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[10:12] == ["input 2", "0 1 1 2"] and lines[33] == "layer 1 out 1 in 2"

        def apply(changes):
            """changes: {line number: new line, or (token index, new token)}."""
            edited = list(lines)
            for lineno, change in changes.items():
                if isinstance(change, tuple):
                    tokens = edited[lineno - 1].split()
                    tokens[change[0]] = change[1]
                    change = " ".join(tokens)
                edited[lineno - 1] = change
            path.write_text("\n".join(edited) + "\n")
            return path

        return apply

    @pytest.mark.parametrize("lineno, index, token, message", [
        (6, 1, "nan", "expected finite dt, got 'nan'"),
        (6, 1, "-0.05", "dt must be positive, got -0.05"),
        (6, 1, "0", "dt must be positive, got 0.0"),
        (10, 1, "two", "expected output slot, got 'two'"),
        (12, 2, "x", "expected input slot, got 'x'"),
        (16, 1, "nan", "expected finite weight, got 'nan'"),
        (18, 1, "inf", "expected finite bias, got 'inf'"),
        (23, 1, "-", "expected finite bias, got '-'"),
    ])
    def test_bad_token_names_file_and_line(self, edit, lineno, index, token, message, windows):
        path = edit({lineno: (index, token)})
        for _ in windows:
            with pytest.raises(ValidationError, match=re.escape(f"{path}: line {lineno}: {message}")):
                load_model(path)

    @pytest.mark.parametrize("lineno, token, what", [
        (34, "99999999999", "weight"), (11, "99999999999", "input slot"),
        (9, "999999999999", "output slot"),
    ])
    def test_huge_count_is_end_of_file(self, edit, lineno, token, what, windows):
        """A count far beyond the file's tokens is refused before any array of
        that size is allocated, at the line of the file's last token."""
        path = edit({lineno: (-1, token)})
        for _ in windows:
            with pytest.raises(ValidationError, match=re.escape(
                    f"{path}: line 39: unexpected end of file, expected {what}")):
                load_model(path)

    @pytest.mark.parametrize("changes, message", [
        ({10: "0 7"}, "output slots of all groups must be a permutation of 0..2"),
        ({10: "0 1"}, "output slots of all groups must be a permutation of 0..2"),
        ({12: "0 1 1 3"}, "group 0 input slots must lie in [0, 3)"),
        ({11: "input 1", 12: "0 2"}, "group 0 layer 0 reads 2 inputs, expected 1"),
        ({34: "layer 1 out 2 in 1", 38: "0.0 0.0"}, "group 1 layer 1 reads 1 inputs, expected 2"),
        ({34: "layer 1 out 2 in 2", 36: "0.5 0.5 0.5 0.5", 38: "0.0 0.0"},
         "group 1 has 1 nets of 2 outputs for 1 output slots"),
    ])
    def test_inconsistent_wiring_refused(self, edit, changes, message, windows):
        path = edit(changes)
        for _ in windows:
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
