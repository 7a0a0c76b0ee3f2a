import dataclasses
import warnings

import numpy as np
import pytest

from folheat.errors import FingerprintError, ValidationError
from folheat.evaluation import (
    benchmark_speed,
    canonical_test_fields,
    cross_section,
    heat_flux,
    per_step_errors,
    relative_l2,
    rollout,
    upsample_field,
    write_pgm,
)
from folheat.fe_solver import linear_solve_spd, solve_transient
from folheat.fem import (
    ConductivityField,
    MaterialParams,
    assemble,
    b_matrix,
    gauss_rule_2x2,
    reduce_system,
    shape_gradients_ref,
    shape_values,
)
from folheat.mesh import (
    DirichletSpec,
    Mesh,
    build_dof_map,
    build_structured_grid,
)
from folheat.neural import init_model


class TestRollout:
    def test_zero_steps(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=0)
        t0 = np.full(mesh.n_nodes, 0.5)
        res = rollout(model, dofs, t0, 0)
        assert len(res.trajectory) == 1
        assert np.array_equal(res.trajectory[0], t0)

    def test_dirichlet_enforced_every_step(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=1)
        t0 = dofs.merge(np.random.default_rng(1).uniform(0, 1, dofs.n_free))
        res = rollout(model, dofs, t0, 5)
        for f in res.trajectory[1:]:
            assert np.array_equal(f[dofs.constrained_nodes], dofs.constrained_values)

    def test_no_clamping(self, grid11):
        mesh, dofs = grid11
        model = init_model("separated", mesh, dofs, seed=2)
        # blow up the output layer so predictions leave [0, 1]
        for g in model.groups:
            g.weights[-1] *= 100.0
            g.biases[-1] += 50.0
        res = rollout(model, dofs, np.full(mesh.n_nodes, 0.5), 1)
        assert res.trajectory[1][dofs.free].max() > 1.0

    def test_fingerprint_mismatch(self, grid11, grid3):
        mesh3, dofs3 = grid3
        _, dofs11 = grid11
        model = init_model("separated", mesh3, dofs3, seed=0)
        with pytest.raises(FingerprintError):
            rollout(model, dofs11, np.zeros(dofs11.n_nodes), 1)

    def test_fe_step_rollout_matches_solver_bitwise(self, reduced11):
        # re-running the autoregressive loop with the FE stepper must produce
        # exactly what solve_transient produced
        _, dofs, _, rs = reduced11
        t0 = dofs.merge(np.random.default_rng(2).uniform(0, 1, dofs.n_free))
        traj = solve_transient(rs, dofs, t0, 4)
        fields = [t0.copy()]
        free = dofs.extract_free(t0)
        for _ in range(4):
            free = linear_solve_spd(rs.A_ff, rs.B_ff @ free + rs.rhs_const)
            fields.append(dofs.merge(free))
        for a, b in zip(traj.fields, fields):
            assert np.array_equal(a, b)


class TestRelativeL2:
    def test_identical(self):
        t = np.array([1.0, 2.0, 3.0])
        assert relative_l2(t, t) == 0.0

    def test_ten_percent(self):
        t = np.random.default_rng(3).uniform(1, 2, 50)
        assert relative_l2(1.1 * t, t) == pytest.approx(0.1, abs=1e-15)

    def test_double(self):
        t = np.array([1.0, -2.0])
        assert relative_l2(2.0 * t, t) == pytest.approx(1.0)

    def test_zero_reference(self):
        with pytest.raises(ValidationError, match="zero"):
            relative_l2(np.ones(3), np.zeros(3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal(20), rng.standard_normal(20) + 3.0
        for alpha in (0.5, -2.0, 17.0):
            assert relative_l2(alpha * a, alpha * b) == pytest.approx(relative_l2(a, b))

    def test_per_step_errors_mismatch(self):
        with pytest.raises(ValidationError):
            per_step_errors([np.ones(3)], [np.ones(3), np.ones(3)])


class TestHeatFlux:
    def test_linear_profile(self, grid11):
        mesh, _ = grid11
        k = ConductivityField.homogeneous(mesh)
        q = heat_flux(mesh, k, 1.0 - mesh.nodes[:, 0])
        assert np.abs(q - np.array([1.0, 0.0])).max() < 1e-12

    def test_constant_field(self, grid11):
        mesh, _ = grid11
        q = heat_flux(mesh, ConductivityField.homogeneous(mesh), np.full(mesh.n_nodes, 0.3))
        assert np.abs(q).max() < 1e-13

    def test_linear_in_conductivity(self, grid11):
        mesh, _ = grid11
        t = np.sin(mesh.nodes[:, 0] * 3.0)
        q1 = heat_flux(mesh, ConductivityField.homogeneous(mesh, 1.0), t)
        q2 = heat_flux(mesh, ConductivityField.homogeneous(mesh, 2.0), t)
        assert np.allclose(q2, 2.0 * q1)

    def test_steady_state_section_conservation(self, system11):
        # total x-flux across vertical sections must match the boundary flux
        from folheat.fe_solver import steady_state

        mesh, dofs, sys_mats = system11
        t = steady_state(sys_mats, dofs)
        k = ConductivityField.homogeneous(mesh)
        q = heat_flux(mesh, k, t)
        totals = []
        for x in (0.0, 0.3, 0.5, 1.0):
            sec = cross_section(mesh, q[:, 0], "x", x)
            totals.append(np.trapezoid(sec[:, 1], sec[:, 0]))
        assert np.abs(np.diff(totals)).max() < 1e-6

    @pytest.mark.parametrize("mesh_name", ["inclusions81", "irregular"])
    def test_matches_add_at_scatter_bitwise(self, irregular_mesh, mesh_name):
        """The nodal sums add each element's mean in element order, as the
        np.add.at scatter they replaced did."""
        mesh = build_structured_grid(81, 81, 1.0, 1.0) if mesh_name == "inclusions81" else irregular_mesh
        k = ConductivityField.inclusions(mesh)
        t = np.random.default_rng(4).uniform(-1.0, 1.0, mesh.n_nodes)
        coords, t_e, k_e = mesh.nodes[mesh.elems], t[mesh.elems], k.values[mesh.elems]
        q_mean = np.zeros((mesh.n_elems, 2))
        for xi, eta in gauss_rule_2x2().points:
            b, _ = b_matrix(coords, xi, eta)
            q_mean += -(k_e @ shape_values(xi, eta))[:, None] * (b @ t_e[:, :, None])[:, :, 0]
        q_mean /= 4
        acc = np.zeros((mesh.n_nodes, 2))
        np.add.at(acc, mesh.elems, q_mean[:, None, :])
        want = acc / np.maximum(np.bincount(mesh.elems.ravel(), minlength=mesh.n_nodes), 1)[:, None]
        assert heat_flux(mesh, k, t).tobytes() == want.tobytes()


class TestCrossSection:
    def test_grid_line(self, grid11):
        mesh, _ = grid11
        sec = cross_section(mesh, mesh.nodes[:, 1], "x", 0.5)
        assert sec.shape == (11, 2)
        assert np.allclose(sec[:, 0], np.linspace(0, 1, 11))

    def test_interpolated_line_matches_bilinear_oracle(self, grid11):
        mesh, _ = grid11
        field = 2.0 * mesh.nodes[:, 0] + 3.0 * mesh.nodes[:, 1] ** 2
        sec = cross_section(mesh, field, "y", 0.18)
        assert sec.shape[0] == 11
        # along x = const edges, the bilinear interpolant is linear in y
        y0, y1 = 0.1, 0.2
        for x, val in sec:
            f0 = 2.0 * x + 3.0 * y0**2
            f1 = 2.0 * x + 3.0 * y1**2
            expected = f0 + (0.18 - y0) / (y1 - y0) * (f1 - f0)
            assert val == pytest.approx(expected, abs=1e-12)

    def test_constant_field(self, grid11):
        mesh, _ = grid11
        sec = cross_section(mesh, np.full(mesh.n_nodes, 0.7), "y", 0.33)
        assert np.abs(sec[:, 1] - 0.7).max() < 1e-12

    def test_out_of_domain(self, grid11):
        mesh, _ = grid11
        with pytest.raises(ValidationError, match="outside"):
            cross_section(mesh, mesh.nodes[:, 0], "x", 1.5)
        with pytest.raises(ValidationError, match="outside"):
            cross_section(mesh, mesh.nodes[:, 0], "y", float("nan"))

    def test_irregular_mesh_section(self, irregular_mesh):
        mesh = irregular_mesh
        field = mesh.nodes[:, 0]
        sec = cross_section(mesh, field, "y", 0.6)
        assert sec.shape[0] > 2
        assert np.abs(sec[:, 1] - sec[:, 0]).max() < 1e-9  # field is x itself


def loop_cross_section(mesh, field, axis, value, tol=1e-9):
    """The per-edge loop cross_section replaced: the last edge wins a key."""
    fixed = 0 if axis == "x" else 1
    moving = 1 - fixed
    coords = mesh.nodes[:, fixed]
    on_line = np.flatnonzero(np.abs(coords - value) <= tol)
    if on_line.size:
        pts = np.column_stack([mesh.nodes[on_line, moving], field[on_line]])
        return pts[np.argsort(pts[:, 0])]
    seen = {}
    for conn in mesh.elems:
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            na, nb = conn[a], conn[b]
            ca, cb = coords[na], coords[nb]
            if (ca - value) * (cb - value) > 0 or ca == cb:
                continue
            t_param = (value - ca) / (cb - ca)
            pos = mesh.nodes[na, moving] + t_param * (mesh.nodes[nb, moving] - mesh.nodes[na, moving])
            seen[round(pos / tol)] = (pos, field[na] + t_param * (field[nb] - field[na]))
    return np.array(sorted(seen.values()), dtype=np.float64).reshape(-1, 2)


@pytest.mark.parametrize("mesh_name", ["inclusions", "irregular"])
def test_cross_section_matches_edge_loop_bitwise(irregular_mesh, mesh_name):
    if mesh_name == "inclusions":
        mesh = build_structured_grid(41, 41, 1.0, 1.0)
        fields = [ConductivityField.inclusions(mesh).values]
    else:
        mesh = irregular_mesh
        fields = []
    # a rough field: edges shared by two elements interpolate it in opposite
    # directions, so duplicate points can differ in their last bits
    fields.append(np.random.default_rng(11).uniform(-1.0, 1.0, mesh.n_nodes))
    for field in fields:
        for axis, fixed in (("x", 0), ("y", 1)):
            lo, hi = mesh.nodes[:, fixed].min(), mesh.nodes[:, fixed].max()
            for value in [*np.linspace(lo, hi, 23), lo + 0.3337 * (hi - lo), 0.5 * (lo + hi)]:
                got = cross_section(mesh, field, axis, value)
                want = loop_cross_section(mesh, field, axis, value)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (axis, value)


class TestUpsample:
    def test_nodal_values_reproduced(self, grid11):
        mesh, _ = grid11
        rng = np.random.default_rng(5)
        field = rng.uniform(0, 1, mesh.n_nodes)
        grid = upsample_field(mesh, field, 11, 11)
        assert np.abs(grid.ravel() - field).max() < 1e-12

    def test_constant_field(self, grid3):
        mesh, _ = grid3
        grid = upsample_field(mesh, np.full(mesh.n_nodes, 0.4), 9, 7)
        assert np.abs(grid - 0.4).max() < 1e-12

    def test_linear_field_exact(self, grid11):
        mesh, _ = grid11
        grid = upsample_field(mesh, 1.0 - mesh.nodes[:, 0], 165, 165)
        xs = np.linspace(0, 1, 165)
        assert np.abs(grid - (1.0 - xs)[None, :]).max() < 1e-12

    def test_outside_point_raises_and_fill_works(self, irregular_mesh):
        mesh = irregular_mesh
        field = mesh.nodes[:, 0]
        grid = upsample_field(mesh, field, 20, 20)
        assert np.isnan(grid).any()
        assert np.isfinite(grid).any()

    def test_linear_field_exact_on_annulus(self, irregular_mesh):
        mesh = irregular_mesh  # quarter annulus, radii 0.45 and 1, 12 arcs
        a, b, c = 0.3, 1.7, -0.9
        grid = upsample_field(mesh, a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1], 97, 89)
        xx, yy = np.meshgrid(np.linspace(0, 1, 97), np.linspace(0, 1, 89))
        inside = np.isfinite(grid)
        assert 0 < inside.sum() < grid.size
        assert np.abs(grid[inside] - (a + b * xx + c * yy)[inside]).max() < 1e-12
        # the mesh's arcs are chords, which lie inside the circles by at most cos(dtheta/2)
        r = np.hypot(xx, yy)
        chord = np.cos(np.pi / 48)
        assert np.all((r[~inside] < 0.45) | (r[~inside] > chord))
        assert np.all((r[inside] >= 0.45 * chord - 1e-12) & (r[inside] <= 1.0 + 1e-12))


def bucket_upsample_field(mesh, field, rx, ry):
    """The bucket-grid locator upsample_field replaced, kept as the bitwise
    reference: elements are binned by bounding box into sqrt(n_elems)^2
    uniform buckets, and each block of 1024 points runs Newton on every
    element of its buckets, lowest-numbered accepted element first; a point
    no element accepts is NaN."""
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (mesh.n_nodes,):
        raise ValidationError(f"field shape {field.shape} does not match mesh")
    if rx < 2 or ry < 2:
        raise ValidationError(f"resampling grid must be at least 2x2, got {rx}x{ry}")

    def expand(counts):
        owner = np.repeat(np.arange(counts.size), counts)
        return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)

    def bucket_of(p):
        return np.clip(np.floor((p - lo) / span * nb).astype(np.int64), 0, nb - 1)

    def invert_bilinear(coords, p, tol=1e-12):
        xi = np.zeros(p.shape)
        live = np.ones(p.shape[0], dtype=bool)
        dropped = np.zeros(p.shape[0], dtype=bool)
        for _ in range(25):
            res = np.einsum("pi,pij->pj", shape_values(xi[:, 0], xi[:, 1]), coords) - p
            live &= np.abs(res).max(axis=1) >= tol
            if not live.any():
                break
            (a, b), (c, d) = np.moveaxis(shape_gradients_ref(xi[:, 0], xi[:, 1]) @ coords, 0, -1)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.column_stack([d * res[:, 0] - c * res[:, 1], a * res[:, 1] - b * res[:, 0]])
                xi[live] -= step[live] / (a * d - c * b)[live, None]
            dropped |= live & ~(np.abs(xi).max(axis=1) <= 3.0)
            live &= ~dropped
        return ~dropped & (np.abs(xi).max(axis=1) <= 1.0 + 1e-9), np.clip(xi, -1.0, 1.0)

    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    nb = max(1, int(np.sqrt(mesh.n_elems)))
    coords = mesh.nodes[mesh.elems]
    b0 = bucket_of(coords.min(axis=1))
    nx, ny = (bucket_of(coords.max(axis=1)) - b0 + 1).T
    elem, k = expand(nx * ny)
    keys = (b0[elem, 0] + k // ny[elem]) * nb + b0[elem, 1] + k % ny[elem]
    start = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=nb * nb))])
    members = elem[np.argsort(keys, kind="stable")]

    xx, yy = np.meshgrid(np.linspace(lo[0], hi[0], rx), np.linspace(lo[1], hi[1], ry))
    queries = np.column_stack([xx.ravel(), yy.ravel()])
    out = np.full(queries.shape[0], np.nan)
    for q0 in range(0, queries.shape[0], 1024):
        q = queries[q0:q0 + 1024]
        bucket = bucket_of(q) @ np.array([nb, 1])
        owner, rank = expand(start[bucket + 1] - start[bucket])
        elem = members[start[bucket][owner] + rank]
        accepted, xi = invert_bilinear(coords[elem], q[owner])
        hit = np.flatnonzero(accepted)
        found, first = np.unique(owner[hit], return_index=True)
        pick = hit[first]
        n = shape_values(xi[pick, 0], xi[pick, 1])
        out[q0 + found] = np.einsum("pi,pi->p", n, field[mesh.elems[elem[pick]]])
    return out.reshape(ry, rx)


def jittered_grid(n: int, seed: int) -> Mesh:
    """An n x n unit-square grid whose interior nodes move by up to 0.3 h each way."""
    mesh = build_structured_grid(n, n, 1.0, 1.0)
    nodes = mesh.nodes.copy()
    inner = ((nodes > 0.0) & (nodes < 1.0)).all(axis=1)
    h = 1.0 / (n - 1)
    nodes[inner] += np.random.default_rng(seed).uniform(-0.3 * h, 0.3 * h, (inner.sum(), 2))
    return Mesh(nodes, mesh.elems, mesh.boundary_sets)


@pytest.mark.parametrize("name, rx, ry", [
    ("grid81", 165, 165),
    ("grid11x5", 300, 7),
    ("grid11x5", 2, 2),
    ("irregular", 60, 50),
    ("irregular", 97, 89),
    ("jittered81", 165, 165),
])
def test_upsample_matches_bucket_locator_bitwise(irregular_mesh, name, rx, ry):
    mesh = {
        "grid81": lambda: build_structured_grid(81, 81, 1.0, 1.0),
        "grid11x5": lambda: build_structured_grid(11, 5, 2.0, 0.5),
        "irregular": lambda: irregular_mesh,
        "jittered81": lambda: jittered_grid(81, 7),
    }[name]()
    field = np.random.default_rng(3).uniform(-1.0, 1.0, mesh.n_nodes)
    want = bucket_upsample_field(mesh, field, rx, ry)
    got = upsample_field(mesh, field, rx, ry)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(got).any() == (name == "irregular")  # only the annulus leaves its box part empty


class TestCanonicalFields:
    def test_names_and_order(self, grid11):
        mesh, dofs = grid11
        fields = canonical_test_fields(mesh, dofs)
        assert list(fields) == ["sin10y", "gaussian", "trig2", "const05", "abs_sin10x"]

    def test_sin10y_bottom_row(self, grid11):
        mesh, dofs = grid11
        f = canonical_test_fields(mesh, dofs)["sin10y"]
        free_bottom = [i for i in np.flatnonzero(mesh.nodes[:, 1] == 0.0) if i in set(dofs.free)]
        assert np.abs(f[free_bottom] - 0.5).max() < 1e-15

    def test_trig2_zero_column_without_dirichlet(self):
        mesh = build_structured_grid(11, 11, 1.0, 1.0)
        dofs = build_dof_map(mesh, DirichletSpec({}))
        f = canonical_test_fields(mesh, dofs)["trig2"]
        x0 = np.flatnonzero(mesh.nodes[:, 0] == 0.0)
        assert np.abs(f[x0]).max() == 0.0  # x^2 factor kills the whole column

    def test_const05(self, grid11):
        mesh, dofs = grid11
        f = canonical_test_fields(mesh, dofs)["const05"]
        assert np.all(f[dofs.free] == 0.5)
        assert np.array_equal(f[dofs.constrained_nodes], dofs.constrained_values)

    def test_dirichlet_overwritten_everywhere(self, grid11):
        mesh, dofs = grid11
        for f in canonical_test_fields(mesh, dofs).values():
            assert np.array_equal(f[dofs.constrained_nodes], dofs.constrained_values)

    def test_deterministic(self, grid11):
        mesh, dofs = grid11
        a = canonical_test_fields(mesh, dofs)["gaussian"]
        b = canonical_test_fields(mesh, dofs)["gaussian"]
        assert np.array_equal(a, b)


class TestBenchmark:
    def test_report_fields(self, grid3):
        mesh, dofs = grid3
        sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        model = init_model("fully_connected", mesh, dofs, hidden_spec=(8, 8), seed=0)
        res = benchmark_speed(model, rs, dofs, np.full(mesh.n_nodes, 0.5), n_steps=2, repeats=5)
        assert [f.name for f in dataclasses.fields(res)] == ["t_nn", "t_fe", "ratio"]  # measured only
        assert res.t_nn > 0 and res.t_fe > 0
        assert res.ratio == res.t_fe / res.t_nn

    def test_zero_steps_flagged(self, grid3):
        mesh, dofs = grid3
        sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        model = init_model("separated", mesh, dofs, seed=0)
        res = benchmark_speed(model, rs, dofs, np.full(mesh.n_nodes, 0.5), n_steps=0, repeats=5)
        assert np.isnan(res.ratio)

    def test_too_few_repeats(self, grid3):
        mesh, dofs = grid3
        sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        model = init_model("separated", mesh, dofs, seed=0)
        with pytest.raises(ValidationError, match="repeats"):
            benchmark_speed(model, rs, dofs, np.full(mesh.n_nodes, 0.5), repeats=2)


class TestPgm:
    def test_header_and_range(self, tmp_path):
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        path = tmp_path / "f.pgm"
        write_pgm(path, grid)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        pixels = np.frombuffer(data[len(b"P5\n4 3\n255\n"):], dtype=np.uint8)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_constant_is_mid_gray(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((2, 2), 3.0))
        assert path.read_bytes().endswith(bytes([127] * 4))

    @pytest.mark.parametrize("grid, pixels", [
        ([[np.nan, 2.0], [1.0, 1.5]], [0, 128, 0, 255]),  # rows flipped: the top row last
        ([[np.nan, 3.0], [3.0, 3.0]], [127, 127, 0, 127]),
        ([[np.nan, np.nan], [np.nan, np.nan]], [0, 0, 0, 0]),
    ])
    def test_nan_is_black_and_the_scale_spans_the_rest(self, tmp_path, grid, pixels):
        path = tmp_path / "n.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_pgm(path, np.array(grid))
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes(pixels)
