import re

import numpy as np
import pytest

from folheat.errors import MeshFormatError, ValidationError
from folheat.fem import gauss_rule_2x2, jacobian_det
from folheat.mesh import (
    DirichletSpec,
    Mesh,
    build_dof_map,
    build_structured_grid,
    load_mesh,
    serialize_mesh,
    validate_mesh,
)


class TestStructuredGrid:
    def test_smallest_grid(self):
        m = build_structured_grid(2, 2, 1.0, 1.0)
        assert m.n_nodes == 4
        assert m.n_elems == 1
        for tag in ("left", "right", "top", "bottom"):
            assert m.boundary_sets[tag].size == 2

    @pytest.mark.parametrize("nx,ny", [(11, 11), (21, 21), (4, 7)])
    def test_counts(self, nx, ny):
        m = build_structured_grid(nx, ny, 1.0, 1.0)
        assert m.n_nodes == nx * ny
        assert m.n_elems == (nx - 1) * (ny - 1)

    def test_row_major_numbering_and_ccw(self):
        m = build_structured_grid(3, 2, 2.0, 1.0)
        assert np.allclose(m.nodes[1], [1.0, 0.0])  # second node along x
        assert np.allclose(m.nodes[3], [0.0, 1.0])  # first node of second row
        # first element starts at the lower-left node and runs CCW
        assert m.elems[0].tolist() == [0, 1, 4, 3]

    def test_constant_jacobian(self):
        nx, ny, w, h = 5, 4, 2.0, 3.0
        m = build_structured_grid(nx, ny, w, h)
        expected = (w / (nx - 1)) * (h / (ny - 1)) / 4.0
        rule = gauss_rule_2x2()
        for e in range(m.n_elems):
            for xi, eta in rule.points:
                assert jacobian_det(m.nodes[m.elems[e]], xi, eta) == pytest.approx(expected)

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            build_structured_grid(1, 5, 1.0, 1.0)
        with pytest.raises(ValidationError):
            build_structured_grid(3, 3, 0.0, 1.0)
        for size in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="positive and finite"):
                build_structured_grid(3, 3, size, 1.0)
            with pytest.raises(ValidationError, match="positive and finite"):
                build_structured_grid(3, 3, 1.0, size)

    def test_corner_nodes_in_both_tags(self):
        m = build_structured_grid(4, 4, 1.0, 1.0)
        assert 0 in m.boundary_sets["left"] and 0 in m.boundary_sets["bottom"]


class TestValidate:
    def test_valid_grid_is_clean(self):
        assert validate_mesh(build_structured_grid(11, 11, 1.0, 1.0)) == []

    def test_duplicate_node_in_quad(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        elems = m.elems.copy()
        elems[0, 1] = elems[0, 0]
        diags = validate_mesh(Mesh(m.nodes, elems, m.boundary_sets))
        assert any("degenerate" in d for d in diags)

    def test_clockwise_quad_flags_negative_jacobian(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        elems = m.elems.copy()
        elems[2] = elems[2][::-1]
        diags = validate_mesh(Mesh(m.nodes, elems, m.boundary_sets))
        assert any("negative Jacobian" in d and "element 2" in d for d in diags)

    def test_out_of_range_index(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        elems = m.elems.copy()
        elems[0, 3] = 99
        diags = validate_mesh(Mesh(m.nodes, elems, m.boundary_sets))
        assert any("out of range" in d for d in diags)

    def test_message_order(self):
        """Index and degenerate messages in element order, then Jacobian ones."""
        m = build_structured_grid(4, 4, 1.0, 1.0)
        elems = m.elems.copy()
        elems[1, 2] = 99  # out of range
        elems[3, 1] = elems[3, 0]  # repeated node
        elems[5] = elems[5][::-1]  # clockwise
        nodes = m.nodes.copy()
        nodes[m.elems[7][2]] = nodes[m.elems[7][0]]  # element 7 folds onto its diagonal
        assert validate_mesh(Mesh(nodes, elems, m.boundary_sets)) == [
            "element 1: node index out of range [0, 16): [1, 2, 99, 5]",
            "element 3: degenerate (repeated node ids [4, 4, 9, 8])",
            "element 5: negative Jacobian at gauss point (-0.5774, -0.5774)"
            " (connectivity not counter-clockwise?)",
            "element 7: singular Jacobian at gauss point (0.5774, -0.5774)",
        ]


class TestMeshFile:
    def test_round_trip(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        m2 = load_mesh(serialize_mesh(m))
        assert np.array_equal(m2.nodes, m.nodes)
        assert np.array_equal(m2.elems, m.elems)
        assert set(m2.boundary_sets) == set(m.boundary_sets)
        for tag in m.boundary_sets:
            assert np.array_equal(m2.boundary_sets[tag], m.boundary_sets[tag])

    def test_irregular_demo_round_trip(self, irregular_mesh):
        m = irregular_mesh
        assert validate_mesh(m) == []
        m2 = load_mesh(serialize_mesh(m))
        assert np.array_equal(m2.nodes, m.nodes)

    def test_out_of_range_reference_rejected(self):
        text = "folmesh 1\nnodes 4\n0 0 0\n1 1 0\n2 1 1\n3 0 1\nelems 1\n0 0 1 99 3\n"
        with pytest.raises(ValidationError, match="out of range"):
            load_mesh(text)

    def test_clockwise_quad_rejected(self):
        text = "folmesh 1\nnodes 4\n0 0 0\n1 1 0\n2 1 1\n3 0 1\nelems 1\n0 3 2 1 0\n"
        with pytest.raises(ValidationError, match="negative Jacobian"):
            load_mesh(text)

    def test_parse_error_carries_line_number(self):
        text = "folmesh 1\nnodes 2\n0 0.0 zero\n1 1.0 0.0\nelems 0\n"
        with pytest.raises(MeshFormatError, match="line 3"):
            load_mesh(text)

    @pytest.mark.parametrize("old, new, message", [
        ("2 1.0 0.0", "2 1.0 zero", "line 5: expected finite y coordinate, got 'zero'"),
        ("2 1.0 0.0", "2 nan 0.0", "line 5: expected finite x coordinate, got 'nan'"),
        ("2 1.0 0.0", "2 1_0.0 0.0", "line 5: expected finite x coordinate, got '1_0.0'"),
        ("2 1.0 0.0", "2 1.0 -1e999", "line 5: expected finite y coordinate, got '-1e999'"),
        ("2 1.0 0.0", "7 1.0 0.0", "line 5: node ids must be contiguous from 0, expected 2 got 7"),
        ("0 0 1 4 3", "0 0 1 4.0 3", "line 13: expected connectivity node id, got '4.0'"),
        ("0 0 1 4 3", "x 0 1 4 3", "line 13: expected element id, got 'x'"),
        ("0 3 6", "0 3 six", "line 19: expected boundary node id, got 'six'"),
        ("bset left 3", "bset left -3", "line 18: negative boundary node id count -3"),
        ("bset top 3", "bset top 4", "line 25: unexpected end of file, expected boundary node id"),
        ("nodes 9", "nodes 999999999999", "line 25: unexpected end of file, expected node id"),
    ])
    def test_bad_token_names_its_line(self, old, new, message):
        text = serialize_mesh(build_structured_grid(3, 3, 1.0, 1.0))
        # an empty set first, whose tag's `_` is no number
        text = text.replace("bset left", "bset no_nodes 0\nbset left")
        assert old in text
        with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
            load_mesh(text.replace(old, new, 1))

    def test_bad_header(self):
        with pytest.raises(MeshFormatError):
            load_mesh("wrongformat 1\n")

    def test_comments_and_wrapping(self):
        m = build_structured_grid(4, 4, 1.0, 1.0)
        text = "# a comment\n" + serialize_mesh(m)
        assert load_mesh(text).n_nodes == 16


class TestDofMap:
    def test_left_right_split_on_11x11(self, grid11):
        _, dofs = grid11
        assert dofs.n_free == 99  # 121 - 2*11
        assert dofs.constrained_nodes.size == 22

    def test_no_dirichlet(self):
        m = build_structured_grid(11, 11, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({}))
        assert dofs.n_free == 121
        assert dofs.constrained_nodes.size == 0

    def test_shared_corner_same_value_accepted(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        dofs = build_dof_map(m, DirichletSpec({"left": 1.0, "top": 1.0}))
        assert 6 in dofs.constrained_nodes  # top-left corner under both tags

    def test_conflicting_values_rejected(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        with pytest.raises(ValidationError, match="prescribed both"):
            build_dof_map(m, DirichletSpec({"left": 1.0, "top": 0.5}))

    def test_unknown_tag(self):
        m = build_structured_grid(3, 3, 1.0, 1.0)
        with pytest.raises(ValidationError, match="not among"):
            build_dof_map(m, DirichletSpec({"west": 1.0}))

    def test_deterministic_and_sorted(self, grid11):
        mesh, dofs = grid11
        dofs2 = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
        assert np.array_equal(dofs.free, dofs2.free)
        assert np.all(np.diff(dofs.free) > 0)
        assert np.all(np.diff(dofs.constrained_nodes) > 0)
        assert dofs.fingerprint == dofs2.fingerprint

    def test_merge_extract_round_trip(self, grid11):
        mesh, dofs = grid11
        rng = np.random.default_rng(0)
        free = rng.uniform(size=dofs.n_free)
        full = dofs.merge(free)
        assert np.array_equal(dofs.extract_free(full), free)
        assert np.array_equal(full[dofs.constrained_nodes], dofs.constrained_values)

    def test_fingerprint_distinguishes_grids(self):
        a = build_dof_map(build_structured_grid(11, 11, 1, 1), DirichletSpec({"left": 1.0}))
        b = build_dof_map(build_structured_grid(21, 21, 1, 1), DirichletSpec({"left": 1.0}))
        assert a.fingerprint != b.fingerprint
