"""Shared fixtures. Thread caps are set before numpy ever loads so timing
and bitwise-reproducibility tests behave the same on any box."""

import os
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from folheat.fem import ConductivityField, MaterialParams, assemble, reduce_system  # noqa: E402
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid, load_mesh  # noqa: E402

LEFT_RIGHT = DirichletSpec({"left": 1.0, "right": 0.0})
IRREGULAR_MESH = Path(__file__).resolve().parent.parent / "data" / "irregular.folmesh"


def rowwise_csv(header, columns):
    """The text of a CSV formatted row by row, every value the repr of its
    Python scalar: the byte reference of write_csv and write_csv_series."""
    head = "" if header is None else ",".join(header) + "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return head + "".join([",".join(map(repr, row)) + "\n" for row in rows])


@pytest.fixture(scope="session")
def irregular_mesh():
    """The shipped unstructured domain: a quarter annulus of radii 0.45 and 1,
    7 graded rings of 13 nodes (72 general quads), tagged inner/outer/start/end."""
    return load_mesh(IRREGULAR_MESH.read_text())

@pytest.fixture(scope="session")
def grid11():
    mesh = build_structured_grid(11, 11, 1.0, 1.0)
    dofs = build_dof_map(mesh, LEFT_RIGHT)
    return mesh, dofs


@pytest.fixture(scope="session")
def grid3():
    mesh = build_structured_grid(3, 3, 1.0, 1.0)
    dofs = build_dof_map(mesh, LEFT_RIGHT)
    return mesh, dofs


@pytest.fixture(scope="session")
def system11(grid11):
    mesh, dofs = grid11
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    return mesh, dofs, sys_mats


@pytest.fixture(scope="session")
def reduced11(system11):
    mesh, dofs, sys_mats = system11
    return mesh, dofs, sys_mats, reduce_system(sys_mats, dofs, 0.05, 1.0)
