from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from folheat.errors import ConvergenceError, NumericalError, ValidationError
from folheat.fe_solver import (
    Trajectory,
    linear_solve_spd,
    load_field,
    load_trajectory,
    save_trajectory,
    solve_transient,
    steady_state,
    step_fe,
    step_filename,
)
from folheat.fem import (
    ConductivityField,
    MaterialParams,
    assemble,
    reduce_system,
    split_blocks,
)
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid


class CountingCSR(sp.csr_array):
    """A CSR matrix that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


class TestLinearSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = linear_solve_spd(sp.eye_array(3, format="csr"), b)
        assert np.allclose(x, b, atol=1e-14)

    def test_diagonal(self):
        a = sp.diags_array([2.0, 2.0], format="csr")
        assert np.allclose(linear_solve_spd(a, np.array([4.0, 6.0])), [2.0, 3.0])

    def test_dense_matrix(self):
        a, b = np.array([[4.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
        assert np.allclose(linear_solve_spd(a, b), np.linalg.solve(a, b), rtol=0, atol=1e-14)

    def test_reduced_system_residual(self, reduced11):
        _, _, _, rs = reduced11
        rng = np.random.default_rng(5)
        b = rng.standard_normal(rs.A_ff.shape[0])
        x = linear_solve_spd(rs.A_ff, b)
        assert np.linalg.norm(rs.A_ff @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_zero_rhs(self):
        a = sp.eye_array(4, format="csr")
        assert np.array_equal(linear_solve_spd(a, np.zeros(4)), np.zeros(4))

    def test_empty_system(self):
        a = sp.csr_array((0, 0))
        assert linear_solve_spd(a, np.zeros(0)).size == 0

    def test_indefinite_matrix_detected(self):
        # rhs along the negative eigenvector makes p.Ap < 0 on the first step
        a = sp.csr_array(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NumericalError, match="SPD"):
            linear_solve_spd(a, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_rhs_fails_at_once(self, reduced11, bad):
        _, _, _, rs = reduced11
        a = CountingCSR(rs.A_ff)
        b = np.ones(rs.A_ff.shape[0])
        b[3] = bad  # 1e200 is finite, but the norm of b overflows
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="right-hand side"):
            linear_solve_spd(a, b)
        assert a.products == 0

    def test_nan_curvature_fails_at_once(self):
        a = CountingCSR(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NumericalError, match="broke down"):
            linear_solve_spd(a, np.array([1.0, 1.0]))
        assert a.products == 1

    def test_nan_diagonal_refused(self):
        a = sp.csr_array(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NumericalError, match="not SPD"):
            linear_solve_spd(a, np.array([1.0, 1.0]))

    def test_non_convergence_reports_residual(self, reduced11):
        _, _, _, rs = reduced11
        b = np.random.default_rng(11).standard_normal(rs.A_ff.shape[0])
        with pytest.raises(ConvergenceError, match="residual"):
            linear_solve_spd(rs.A_ff, b, tol=1e-15, max_iter=2)

    def test_agrees_with_sparse_direct_solve(self, reduced11):
        _, _, _, rs = reduced11
        rng = np.random.default_rng(6)
        b = rng.standard_normal(rs.A_ff.shape[0])
        assert np.abs(spsolve(rs.A_ff.tocsc(), b) - linear_solve_spd(rs.A_ff, b)).max() < 1e-10

    def test_determinism(self, reduced11):
        _, _, _, rs = reduced11
        b = np.random.default_rng(7).standard_normal(rs.A_ff.shape[0])
        assert np.array_equal(linear_solve_spd(rs.A_ff, b), linear_solve_spd(rs.A_ff, b))


class TestSteadyState:
    def test_homogeneous_is_linear_profile(self, system11):
        mesh, dofs, sys_mats = system11
        t = steady_state(sys_mats, dofs)
        assert np.abs(t - (1.0 - mesh.nodes[:, 0])).max() < 1e-10

    def test_equal_boundaries_give_constant(self):
        m = build_structured_grid(5, 5, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({"left": 0.7, "right": 0.7}))
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams())
        assert np.abs(steady_state(sys_mats, dofs) - 0.7).max() < 1e-10

    def test_no_dirichlet_raises(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({}))
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams())
        with pytest.raises(NumericalError, match="Dirichlet"):
            steady_state(sys_mats, dofs)

    def test_heterogeneous_flux_balance(self):
        # discrete reaction flux: the K*T rows of the boundary nodes must balance
        m = build_structured_grid(11, 11, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({"left": 1.0, "right": 0.0}))
        sys_mats = assemble(m, ConductivityField.inclusions(m), MaterialParams())
        t = steady_state(sys_mats, dofs)
        reactions = sys_mats.K @ t
        left = reactions[m.boundary_sets["left"]].sum()
        right = reactions[m.boundary_sets["right"]].sum()
        assert abs(left + right) < 1e-8

    def test_maximum_principle(self, system11):
        _, dofs, sys_mats = system11
        t = steady_state(sys_mats, dofs)
        assert t.min() >= 0.0 - 1e-12 and t.max() <= 1.0 + 1e-12


class TestStepFe:
    def test_steady_state_is_fixed_point(self, reduced11):
        _, dofs, sys_mats, rs = reduced11
        t_ss = steady_state(sys_mats, dofs)
        assert np.abs(step_fe(rs, dofs, t_ss) - t_ss).max() < 1e-10

    def test_linear_profile_unchanged(self, reduced11):
        mesh, dofs, _, rs = reduced11
        t = 1.0 - mesh.nodes[:, 0]
        assert np.abs(step_fe(rs, dofs, t) - t).max() < 1e-10

    def test_all_dirichlet_returns_prescribed(self):
        m = build_structured_grid(2, 2, 1.0, 1.0)
        dofs = build_dof_map(
            m, DirichletSpec({"left": 0.4, "right": 0.4, "top": 0.4, "bottom": 0.4})
        )
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        out = step_fe(rs, dofs, np.full(4, 0.9))
        assert np.array_equal(out, np.full(4, 0.4))

    def test_dirichlet_values_enforced(self, reduced11):
        _, dofs, _, rs = reduced11
        rng = np.random.default_rng(8)
        t = rng.uniform(0, 1, dofs.n_nodes)
        out = step_fe(rs, dofs, t)
        assert np.array_equal(out[dofs.constrained_nodes], dofs.constrained_values)


class TestTransient:
    def test_zero_steps(self, reduced11):
        _, dofs, _, rs = reduced11
        t0 = np.full(dofs.n_nodes, 0.5)
        traj = solve_transient(rs, dofs, t0, 0)
        assert len(traj.fields) == 1
        assert np.array_equal(traj.fields[0], t0)

    def test_converges_to_steady_state(self, reduced11):
        _, dofs, sys_mats, rs = reduced11
        t_ss = steady_state(sys_mats, dofs)
        traj = solve_transient(rs, dofs, np.full(dofs.n_nodes, 0.5), 200)
        assert np.abs(traj.fields[-1] - t_ss).max() < 1e-6

    def test_monotone_energy_decay(self, reduced11):
        # backward Euler: the M-norm distance to steady state never grows
        _, dofs, sys_mats, rs = reduced11
        m_ff, _ = split_blocks(sys_mats.M, dofs)
        t_ss = steady_state(sys_mats, dofs)[dofs.free]
        traj = solve_transient(rs, dofs, np.full(dofs.n_nodes, 0.0), 50)
        norms = []
        for f in traj.fields:
            e = f[dofs.free] - t_ss
            norms.append(float(e @ (m_ff @ e)))
        assert all(b <= a + 1e-14 for a, b in zip(norms, norms[1:]))

    def test_constant_dirichlet_constant_trajectory(self):
        m = build_structured_grid(5, 5, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({"left": 0.7, "right": 0.7}))
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        traj = solve_transient(rs, dofs, np.full(25, 0.7), 5)
        for f in traj.fields:
            assert np.abs(f - 0.7).max() < 1e-12

    def test_alpha_variants_stable(self, system11):
        _, dofs, sys_mats = system11
        for alpha in (0.0, 0.5, 1.0):
            rs = reduce_system(sys_mats, dofs, 0.01, alpha)
            traj = solve_transient(rs, dofs, np.full(dofs.n_nodes, 0.5), 5)
            assert np.isfinite(traj.fields[-1]).all()

    def test_negative_steps_rejected(self, reduced11):
        _, dofs, _, rs = reduced11
        with pytest.raises(ValidationError):
            solve_transient(rs, dofs, np.full(dofs.n_nodes, 0.5), -1)


class TestFieldIO:
    def test_field_round_trip(self, tmp_path, grid11):
        mesh, _ = grid11
        rng = np.random.default_rng(9)
        values = rng.uniform(-1, 2, mesh.n_nodes)
        path = tmp_path / step_filename(0)
        save_trajectory(tmp_path, mesh, Trajectory([values]))
        assert np.array_equal(load_field(path, mesh), values)

    def test_field_of_another_mesh_refused(self, tmp_path, grid11):
        mesh, _ = grid11
        wide = build_structured_grid(11, 11, 2.0, 1.0)  # same node count, other coordinates
        path = tmp_path / step_filename(0)
        save_trajectory(tmp_path, wide, Trajectory([np.zeros(wide.n_nodes)]))
        assert load_field(path).shape == (mesh.n_nodes,)
        with pytest.raises(ValidationError, match=f"{path} line 3: node 1 lies at"):
            load_field(path, mesh)

    def test_trajectory_round_trip(self, tmp_path, reduced11):
        mesh, dofs, _, rs = reduced11
        traj = solve_transient(rs, dofs, np.full(dofs.n_nodes, 0.5), 3)
        save_trajectory(tmp_path / "traj", mesh, traj)
        back = load_trajectory(tmp_path / "traj", mesh)
        assert len(back.fields) == 4
        for a, b in zip(traj.fields, back.fields):
            assert np.array_equal(a, b)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            load_trajectory(tmp_path / "nope")


def rowwise_save_trajectory(out_dir, mesh, traj):
    """The writer save_trajectory replaced, kept as the byte reference: every
    step file formats every row, node_id,x,y included, one value at a time."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, field in enumerate(traj.fields):
        columns = [range(mesh.n_nodes), *mesh.nodes.T, np.asarray(field, dtype=np.float64)]
        columns = [np.asarray(c).tolist() for c in columns]
        row = ",".join(["%r"] * len(columns)) + "\n"
        text = "node_id,x,y,T\n" + "".join([row % values for values in zip(*columns)])
        (out / step_filename(i)).write_text(text, newline="\n")


def march(mesh, dirichlet, k, n_steps, t0=0.5):
    dofs = build_dof_map(mesh, DirichletSpec(dirichlet))
    rs = reduce_system(assemble(mesh, k, MaterialParams()), dofs, 0.05, 1.0)
    return solve_transient(rs, dofs, np.full(mesh.n_nodes, t0), n_steps)


class TestTrajectoryBytes:
    """save_trajectory formats the node columns once per trajectory; its files
    must equal, byte for byte, those of the row-by-row reference."""

    @staticmethod
    def assert_same_bytes(tmp_path, mesh, traj):
        save_trajectory(tmp_path / "new", mesh, traj)
        rowwise_save_trajectory(tmp_path / "ref", mesh, traj)
        names = sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == names
        assert len(names) == len(traj.fields)
        for name in names:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    def test_grid_11(self, tmp_path, reduced11):
        mesh, dofs, _, rs = reduced11
        self.assert_same_bytes(tmp_path, mesh, solve_transient(rs, dofs, np.full(mesh.n_nodes, 0.5), 10))

    def test_grid_81_with_inclusions(self, tmp_path):
        mesh = build_structured_grid(81, 81, 1.0, 1.0)
        traj = march(mesh, {"left": 1.0, "right": 0.0}, ConductivityField.inclusions(mesh), 3)
        self.assert_same_bytes(tmp_path, mesh, traj)

    def test_irregular_mesh(self, tmp_path, irregular_mesh):
        mesh = irregular_mesh
        traj = march(mesh, {"inner": 1.0, "outer": 0.0}, ConductivityField.homogeneous(mesh), 3)
        self.assert_same_bytes(tmp_path, mesh, traj)

    def test_awkward_values(self, tmp_path, grid11):
        mesh, _ = grid11
        values = [-0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-309, 1.0, -3.0, 1e16, 2.0**60,
                  0.1 + 0.2, 1 / 3, -1e300]
        fields = [np.resize(np.roll(values, shift), mesh.n_nodes) for shift in range(3)]
        fields.append(np.arange(mesh.n_nodes))  # integers are written as floats
        self.assert_same_bytes(tmp_path, mesh, Trajectory(fields))
        text = (tmp_path / "new" / step_filename(0)).read_text().splitlines()
        assert text[1:5] == ["0,0.0,0.0,-0.0", "1,0.1,0.0,0.0", "2,0.2,0.0,1e-300",
                             "3,0.30000000000000004,0.0,5e-324"]
        assert (tmp_path / "new" / step_filename(3)).read_text().splitlines()[2] == "1,0.1,0.0,1.0"

    def test_empty_trajectory_writes_no_file(self, tmp_path, grid11):
        mesh, _ = grid11
        save_trajectory(tmp_path / "t", mesh, Trajectory([]))
        assert list((tmp_path / "t").iterdir()) == []

    def test_wrong_shape_refused_before_writing(self, tmp_path, grid11):
        mesh, _ = grid11
        traj = Trajectory([np.zeros(mesh.n_nodes), np.zeros(3)])
        with pytest.raises(ValidationError, match=r"field shape \(3,\) does not match mesh \(121\)"):
            save_trajectory(tmp_path / "t", mesh, traj)
        assert not (tmp_path / "t").exists()
