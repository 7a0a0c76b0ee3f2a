"""End-to-end behavior on the shipped unstructured domain (general quads):
the same training recipe, reference solver, and post-processing must work
without any structured-grid assumptions."""

import numpy as np
import pytest

from folheat.evaluation import cross_section, per_step_errors, rollout
from folheat.fe_solver import solve_transient, steady_state
from folheat.fem import ConductivityField, MaterialParams, assemble, reduce_system
from folheat.mesh import DirichletSpec, build_dof_map, validate_mesh
from folheat.neural import init_model
from folheat.sampling import FourierParams, build_sample_set
from folheat.training import TrainConfig, train


@pytest.fixture(scope="module")
def annulus(irregular_mesh):
    mesh = irregular_mesh
    dofs = build_dof_map(mesh, DirichletSpec({"inner": 1.0, "outer": 0.0}))
    k = ConductivityField.inclusions(
        mesh, circles=((0.55, 0.55, 0.12),), background=1.0, inclusion=0.1
    )
    sys_mats = assemble(mesh, k, MaterialParams())
    return mesh, dofs, reduce_system(sys_mats, dofs, 0.05, 1.0), sys_mats


def test_mesh_is_valid_general_quads(irregular_mesh):
    mesh = irregular_mesh
    assert validate_mesh(mesh) == []
    # genuinely non-axis-aligned elements
    coords = mesh.nodes[mesh.elems[0]]
    edges = coords[[1, 2, 3, 0]] - coords
    assert np.abs(edges[:, 0] * edges[:, 1]).max() > 1e-6


def test_steady_state_bounded_by_dirichlet_values(annulus):
    mesh, dofs, _, sys_mats = annulus
    t = steady_state(sys_mats, dofs)
    assert t.min() >= -1e-10 and t.max() <= 1.0 + 1e-10


def test_short_training_tracks_fe_rollout(annulus):
    mesh, dofs, rs, _ = annulus
    samples = build_sample_set((0, 270, 30), FourierParams(), mesh, dofs, seed=3)
    model = init_model("separated", mesh, dofs, seed=3)
    model, record = train(model, rs, dofs, samples,
                          TrainConfig(epochs=300, batch_size=60, seed=3))
    assert record[-1] < record[0] * 1e-2
    x = mesh.nodes[:, 0]
    for t0 in (np.full(mesh.n_nodes, 0.5), np.abs(np.sin(10.0 * x))):
        t0 = dofs.merge(dofs.extract_free(t0))
        errs = per_step_errors(
            rollout(model, dofs, t0, 10).trajectory,
            solve_transient(rs, dofs, t0, 10).fields,
        )[1:]
        assert errs.max() < 0.15


def test_cross_section_through_curved_elements(annulus):
    mesh, dofs, _, sys_mats = annulus
    t = steady_state(sys_mats, dofs)
    sec = cross_section(mesh, t, "y", 0.3)
    assert sec.shape[0] >= 3
    assert np.all(np.diff(sec[:, 0]) > 0)
    assert sec[:, 1].min() >= -1e-9 and sec[:, 1].max() <= 1.0 + 1e-9
