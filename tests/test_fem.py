import numpy as np
import pytest

from folheat.errors import NumericalError, ValidationError
from folheat.fem import (
    ConductivityField,
    MaterialParams,
    assemble,
    b_matrix,
    element_mass,
    element_stiffness,
    gauss_rule_2x2,
    jacobian_det,
    load_conductivity,
    reduce_system,
    shape_gradients_ref,
    shape_values,
    split_blocks,
)
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat.textio import write_csv

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RULE = gauss_rule_2x2()


def symbolic_element_matrices(coords, rho_c, k_nodal):
    """Independent oracle: exact symbolic integration of the element integrals."""
    import sympy as sy

    xi, eta = sy.symbols("xi eta")
    n = [
        (1 - xi) * (1 - eta) / 4,
        (1 + xi) * (1 - eta) / 4,
        (1 + xi) * (1 + eta) / 4,
        (1 - xi) * (1 + eta) / 4,
    ]
    x = sum(n[i] * coords[i][0] for i in range(4))
    y = sum(n[i] * coords[i][1] for i in range(4))
    jac = sy.Matrix([[sy.diff(x, xi), sy.diff(y, xi)], [sy.diff(x, eta), sy.diff(y, eta)]])
    det = jac.det()
    inv = jac.inv()
    grads = [inv * sy.Matrix([sy.diff(n[i], xi), sy.diff(n[i], eta)]) for i in range(4)]
    k_interp = sum(n[i] * k_nodal[i] for i in range(4))
    mass = np.zeros((4, 4))
    stiff = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            mass[i, j] = float(
                sy.integrate(rho_c * n[i] * n[j] * det, (xi, -1, 1), (eta, -1, 1))
            )
            stiff[i, j] = float(
                sy.integrate(k_interp * (grads[i].T * grads[j])[0, 0] * det,
                             (xi, -1, 1), (eta, -1, 1))
            )
    return mass, stiff


class TestShapeFunctions:
    def test_centroid(self):
        assert np.allclose(shape_values(0.0, 0.0), 0.25)

    @pytest.mark.parametrize("corner,expected", [
        ((-1, -1), [1, 0, 0, 0]),
        ((1, -1), [0, 1, 0, 0]),
        ((1, 1), [0, 0, 1, 0]),
        ((-1, 1), [0, 0, 0, 1]),
    ])
    def test_kronecker_at_corners(self, corner, expected):
        assert np.allclose(shape_values(*corner), expected)

    def test_partition_of_unity_random_points(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            xi, eta = rng.uniform(-1, 1, 2)
            assert np.sum(shape_values(xi, eta)) == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(shape_gradients_ref(xi, eta).sum(axis=1), 0.0, atol=1e-14)

    def test_gradients_at_center(self):
        g = shape_gradients_ref(0.0, 0.0)
        assert np.allclose(g[0], [-0.25, 0.25, 0.25, -0.25])

    def test_gradients_match_finite_differences(self):
        h = 1e-6
        rng = np.random.default_rng(2)
        for _ in range(20):
            xi, eta = rng.uniform(-1, 1, 2)
            g = shape_gradients_ref(xi, eta)
            fd_xi = (shape_values(xi + h, eta) - shape_values(xi - h, eta)) / (2 * h)
            fd_eta = (shape_values(xi, eta + h) - shape_values(xi, eta - h)) / (2 * h)
            assert np.abs(g[0] - fd_xi).max() < 1e-8
            assert np.abs(g[1] - fd_eta).max() < 1e-8


class TestQuadrature:
    def test_points_and_weights(self):
        assert np.allclose(np.abs(RULE.points), 0.5773502691896258)
        assert RULE.weights.sum() == pytest.approx(4.0)

    def test_exact_for_biquadratic(self):
        val = sum(w * (xi**2) * (eta**2) for (xi, eta), w in zip(RULE.points, RULE.weights))
        assert val == pytest.approx(4.0 / 9.0, abs=1e-15)


class TestBMatrix:
    def test_unit_square_detj(self):
        for xi, eta in RULE.points:
            _, det = b_matrix(UNIT_SQUARE, xi, eta)
            assert det == pytest.approx(0.25)

    def test_unit_square_center_gradients(self):
        b, _ = b_matrix(UNIT_SQUARE, 0.0, 0.0)
        assert np.allclose(b[0], [-0.5, 0.5, 0.5, -0.5])

    def test_gradients_match_fd_on_skewed_element(self):
        # perturb the element so the Jacobian varies over the element
        coords = UNIT_SQUARE + np.array([[0, 0], [0.1, -0.05], [0.2, 0.15], [-0.1, 0.1]])
        h = 1e-6
        nodal = np.array([0.3, -1.2, 0.7, 2.1])

        def field_at(xi, eta):
            return float(shape_values(xi, eta) @ nodal)

        def point_at(xi, eta):
            return shape_values(xi, eta) @ coords

        for xi, eta in RULE.points:
            b, _ = b_matrix(coords, xi, eta)
            grad = b @ nodal
            # chain rule through the map: dT/dx via reference-space differences
            j = shape_gradients_ref(xi, eta) @ coords
            dref = np.array([
                (field_at(xi + h, eta) - field_at(xi - h, eta)) / (2 * h),
                (field_at(xi, eta + h) - field_at(xi, eta - h)) / (2 * h),
            ])
            fd_grad = np.linalg.solve(j, dref)
            assert np.abs(grad - fd_grad).max() < 1e-7

    def test_degenerate_element_raises(self):
        coords = UNIT_SQUARE.copy()
        coords[1] = coords[0]  # collapsed edge: the map is singular at that corner
        with pytest.raises(NumericalError, match="singular"):
            b_matrix(coords, -1.0, -1.0)

    def test_fully_collapsed_element_raises_at_gauss_points(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(NumericalError, match="singular"):
            b_matrix(coords, RULE.points[0][0], RULE.points[0][1])


class TestElementMatrices:
    def test_mass_matches_symbolic_oracle(self):
        me = element_mass(UNIT_SQUARE, MaterialParams(10.0, 1.0), RULE)
        expected = (10.0 / 36.0) * np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
        )
        assert np.abs(me - expected).max() < 1e-13
        oracle_mass, _ = symbolic_element_matrices(UNIT_SQUARE, 10.0, [1, 1, 1, 1])
        assert np.abs(me - oracle_mass).max() < 1e-13

    def test_stiffness_matches_symbolic_oracle(self):
        ke = element_stiffness(UNIT_SQUARE, np.ones(4), RULE)
        expected = (1.0 / 6.0) * np.array(
            [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]], dtype=float
        )
        assert np.abs(ke - expected).max() < 1e-13
        _, oracle_stiff = symbolic_element_matrices(UNIT_SQUARE, 1.0, [1, 1, 1, 1])
        assert np.abs(ke - oracle_stiff).max() < 1e-13

    def test_heterogeneous_stiffness_matches_symbolic_oracle(self):
        k_nodal = np.array([1.0, 0.1, 2.5, 0.7])
        ke = element_stiffness(UNIT_SQUARE, k_nodal, RULE)
        _, oracle = symbolic_element_matrices(UNIT_SQUARE, 1.0, k_nodal.tolist())
        assert np.abs(ke - oracle).max() < 1e-13

    def test_rectangle_matches_symbolic_oracle(self):
        coords = np.array([[0.0, 0.0], [0.4, 0.0], [0.4, 0.25], [0.0, 0.25]])
        me = element_mass(coords, MaterialParams(2.0, 3.0), RULE)
        ke = element_stiffness(coords, np.full(4, 1.3), RULE)
        mass, stiff = symbolic_element_matrices(coords, 6.0, [1.3] * 4)
        assert np.abs(me - mass).max() < 1e-13
        assert np.abs(ke - stiff).max() < 1e-13

    def test_mass_total_is_rho_c_area(self):
        me = element_mass(UNIT_SQUARE, MaterialParams(10.0, 1.0), RULE)
        assert me.sum() == pytest.approx(10.0)
        assert np.all(me > 0)
        assert np.allclose(me, me.T)

    def test_mass_scales_with_area(self):
        me1 = element_mass(UNIT_SQUARE, MaterialParams(10.0, 1.0), RULE)
        me2 = element_mass(2.0 * UNIT_SQUARE, MaterialParams(10.0, 1.0), RULE)
        assert np.allclose(me2, 4.0 * me1)

    def test_stiffness_kernel_and_linearity(self):
        ke1 = element_stiffness(UNIT_SQUARE, np.ones(4), RULE)
        assert np.abs(ke1 @ np.ones(4)).max() < 1e-12
        ke2 = element_stiffness(UNIT_SQUARE, 2.0 * np.ones(4), RULE)
        assert np.allclose(ke2, 2.0 * ke1)


class TestBatchedKernels:
    """Element kernels over a leading element axis equal the stacked single-element calls."""

    def test_all_elements_of_irregular_mesh(self, irregular_mesh):
        mesh = irregular_mesh
        coords = mesh.nodes[mesh.elems]
        k_e = (1.0 + mesh.nodes[:, 0] ** 2)[mesh.elems]
        mat = MaterialParams(2.0, 3.0)

        def close(batched, single):
            single = np.stack(single)
            assert batched.shape == single.shape
            assert np.abs(batched - single).max() <= 1e-14 * np.abs(single).max()

        close(element_mass(coords, mat, RULE), [element_mass(c, mat, RULE) for c in coords])
        close(element_stiffness(coords, k_e, RULE),
              [element_stiffness(c, k, RULE) for c, k in zip(coords, k_e)])
        for xi, eta in RULE.points:
            b, det = b_matrix(coords, xi, eta)
            singles = [b_matrix(c, xi, eta) for c in coords]
            close(b, [s[0] for s in singles])
            close(det, [s[1] for s in singles])
            close(jacobian_det(coords, xi, eta), [jacobian_det(c, xi, eta) for c in coords])

    def test_singular_element_named(self):
        coords = np.stack([UNIT_SQUARE] * 4)
        coords[2, :, 0] = 0.0  # element 2 collapses onto a line
        with pytest.raises(NumericalError, match="in element 2"):
            b_matrix(coords, *RULE.points[0])
        with pytest.raises(NumericalError, match="in element 2"):
            element_mass(coords, MaterialParams(), RULE)

    def test_k_nodal_must_match_elements(self):
        with pytest.raises(ValidationError, match="k_nodal"):
            element_stiffness(np.stack([UNIT_SQUARE] * 3), np.ones((2, 4)), RULE)


class TestAssembly:
    def test_single_element_grid(self):
        m = build_structured_grid(2, 2, 1.0, 1.0)
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams(10.0, 1.0))
        me = element_mass(UNIT_SQUARE, MaterialParams(10.0, 1.0), RULE)
        ke = element_stiffness(UNIT_SQUARE, np.ones(4), RULE)
        conn = m.elems[0]  # local order maps onto global node numbering
        expected_m = np.zeros((4, 4))
        expected_k = np.zeros((4, 4))
        expected_m[np.ix_(conn, conn)] = me
        expected_k[np.ix_(conn, conn)] = ke
        assert np.abs(sys_mats.M.toarray() - expected_m).max() < 1e-14
        assert np.abs(sys_mats.K.toarray() - expected_k).max() < 1e-14

    def test_stiffness_annihilates_linear_field_on_interior(self, system11):
        mesh, dofs, sys_mats = system11
        linear = 1.0 - mesh.nodes[:, 0]
        residual = sys_mats.K @ linear
        assert np.abs(residual[dofs.free]).max() < 1e-12

    def test_mass_total_is_domain_heat_capacity(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams(10.0, 1.0))
        assert sys_mats.M.sum() == pytest.approx(10.0)

    def test_mass_spd_on_random_vectors(self, system11):
        _, _, sys_mats = system11
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.standard_normal(sys_mats.M.shape[0])
            assert float(x @ (sys_mats.M @ x)) > 0.0

    def test_stiffness_constant_kernel(self, system11):
        _, _, sys_mats = system11
        assert np.abs(sys_mats.K @ np.ones(sys_mats.M.shape[0])).max() < 1e-12

    def test_linearity_in_conductivity_and_material(self):
        m = build_structured_grid(4, 4, 1.0, 1.0)
        rng = np.random.default_rng(4)
        k1 = ConductivityField(rng.uniform(0.5, 2.0, m.n_nodes))
        k2 = ConductivityField(rng.uniform(0.5, 2.0, m.n_nodes))
        s1 = assemble(m, k1, MaterialParams(10.0, 1.0))
        s2 = assemble(m, k2, MaterialParams(10.0, 1.0))
        s12 = assemble(m, ConductivityField(k1.values + k2.values), MaterialParams(10.0, 1.0))
        assert np.abs((s1.K + s2.K - s12.K).toarray()).max() < 1e-12
        s_double = assemble(m, k1, MaterialParams(20.0, 1.0))
        assert np.abs((s_double.M - 2.0 * s1.M).toarray()).max() < 1e-12

    def test_size_mismatch(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        with pytest.raises(ValidationError):
            assemble(m, ConductivityField(np.ones(5)), MaterialParams())


class TestReduceSystem:
    def test_dt_to_zero_limit(self, system11):
        _, dofs, sys_mats = system11
        rs = reduce_system(sys_mats, dofs, 1e-15, 1.0)
        m_ff, _ = split_blocks(sys_mats.M, dofs)
        assert np.abs((rs.A_ff - m_ff).toarray()).max() < 1e-12

    def test_rhs_const_is_dirichlet_coupling(self, system11):
        _, dofs, sys_mats = system11
        dt = 0.05
        for alpha in (0.0, 0.5, 1.0):
            rs = reduce_system(sys_mats, dofs, dt, alpha)
            _, k_fd = split_blocks(sys_mats.K, dofs)
            expected = -dt * (k_fd @ dofs.constrained_values)
            assert np.allclose(rs.rhs_const, expected)

    def test_alpha_one_bff_is_mass(self, reduced11):
        _, dofs, sys_mats, rs = reduced11
        m_ff, _ = split_blocks(sys_mats.M, dofs)
        assert np.abs((rs.B_ff - m_ff).toarray()).max() == 0.0

    def test_invalid_args(self, system11):
        _, dofs, sys_mats = system11
        with pytest.raises(ValidationError):
            reduce_system(sys_mats, dofs, -0.1, 1.0)
        with pytest.raises(ValidationError):
            reduce_system(sys_mats, dofs, 0.05, 0.7)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0])
    def test_dt_not_positive_and_finite_refused(self, system11, dt):
        _, dofs, sys_mats = system11
        with pytest.raises(ValidationError, match="dt must be positive and finite"):
            reduce_system(sys_mats, dofs, dt, 1.0)

    def test_all_dirichlet_mesh_gives_empty_system(self):
        m = build_structured_grid(2, 2, 1.0, 1.0)
        dofs = build_dof_map(
            m, DirichletSpec({"left": 0.3, "right": 0.3, "top": 0.3, "bottom": 0.3})
        )
        sys_mats = assemble(m, ConductivityField.homogeneous(m), MaterialParams())
        rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
        assert rs.A_ff.shape[0] == 0
        assert rs.rhs_const.size == 0


class TestConductivity:
    def test_positive_required(self):
        with pytest.raises(ValidationError):
            ConductivityField(np.array([1.0, 0.0, 2.0]))
        with pytest.raises(ValidationError, match="finite"):
            ConductivityField(np.array([1.0, np.inf, 2.0]))

    def test_inclusions_two_levels(self):
        m = build_structured_grid(11, 11, 1.0, 1.0)
        k = ConductivityField.inclusions(m)
        values = set(np.unique(k.values).tolist())
        assert values == {0.1, 1.0}
        assert (k.values == 0.1).sum() > 0

    def test_csv_round_trip(self, tmp_path):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        k = ConductivityField.inclusions(m, circles=((0.5, 0.5, 0.3),))
        path = tmp_path / "k.csv"
        write_csv(path, ["node_id", "k"], [np.arange(m.n_nodes), k.values])
        k2 = load_conductivity(path, m.n_nodes)
        assert np.array_equal(k.values, k2.values)

    def test_csv_size_check(self, tmp_path):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        path = tmp_path / "k.csv"
        write_csv(path, ["node_id", "k"], [np.arange(m.n_nodes), np.ones(m.n_nodes)])
        with pytest.raises(ValidationError):
            load_conductivity(path, 121)

    @pytest.mark.parametrize("row", ["x,1.0", "0,abc", "0", "0,inf", "0,nan", "0,-2.0", "0.5,1.0",
                                     "0,1_0", "0_0,1.0"])
    def test_malformed_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "k.csv"
        path.write_text(f"node_id,k\n1,1.0\n{row}\n")
        with pytest.raises(ValidationError, match=f"{path} line 3"):
            load_conductivity(path)

    def test_digit_separator_is_no_number(self, tmp_path):
        """int() and float() read 1_0 as 10; a CSV cell does not."""
        path = tmp_path / "k.csv"
        path.write_text("node_id,k,note\n0,1.0,a_b\n1,1_0,\n")
        with pytest.raises(ValidationError, match=r"line 3: expected a new integer node id and "
                                                  r"numeric k, got '1,1_0,'$"):
            load_conductivity(path)
        path.write_text("node_id,k,note_1\n0,1.0,a_b\n1,10,c_d\n")  # other columns may hold _
        assert load_conductivity(path).values.tolist() == [1.0, 10.0]

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "k.csv"
        path.write_text("node_id,k\n0,1.0\n0,2.0\n")
        with pytest.raises(ValidationError, match="line 3: expected a new integer node id"):
            load_conductivity(path)
