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


def row_rng(seed, row):
    """The generator of corpus row `row` under the per-row seeding of the
    first corpus (sidecar without "corpus"): SeedSequence((seed, row))."""
    return np.random.default_rng(np.random.SeedSequence((seed, row)))


def minmax(values):
    """Min-max normalize into [0, 1]; a span under 1e-12 gives 0.5 everywhere."""
    span = values.max() - values.min()
    return np.full(values.shape, 0.5) if span < 1e-12 else (values - values.min()) / span


def series(terms, mesh, dofs):
    """The normalized trigonometric field of term parameters (offset, amp_x,
    amp_y, freq_x, freq_y) at the free nodes, by a scalar loop over the terms:
    the generator's definition, independent of the batched evaluator."""
    xy = mesh.nodes[dofs.free]
    x, y = xy[:, 0], xy[:, 1]
    total = np.zeros(dofs.n_free)
    for offset, amp_x, amp_y, freq_x, freq_y in terms:
        sx, cx = np.sin(freq_x * x), np.cos(freq_x * x)
        sy, cy = np.sin(freq_y * y), np.cos(freq_y * y)
        total += offset + amp_x * sx * cy + amp_y * cx * sy + amp_x * sx * sy + amp_y * cx * cy
    return minmax(total)


def reference_fourier(fp, mesh, dofs, rng):
    """One trigonometric field of the first corpus contract: per term and
    menu, a scalar interval index, then a scalar uniform value within it."""
    menus = (fp.offset_ranges, fp.amp_x_ranges, fp.amp_y_ranges, fp.freq_x_ranges, fp.freq_y_ranges)
    return series([[float(rng.uniform(*menu[rng.integers(len(menu))])) for menu in menus]
                   for _ in range(fp.n_terms)], mesh, dofs)


def legacy_corpus(counts, fp, mesh, dofs, seed):
    """The (n_fourier, n_gaussian, n_constant) corpus of the first corpus
    contract, row by row: row r draws from row_rng(seed, r), a trigonometric
    row as reference_fourier, a white-noise row as min-max normalized
    standard normals, a constant row as one uniform level. The training bits
    of tests/test_training.py are pinned on it."""
    n_fourier, n_gaussian, _ = counts
    rows = []
    for row in range(sum(counts)):
        rng = row_rng(seed, row)
        if row < n_fourier:
            rows.append(reference_fourier(fp, mesh, dofs, rng))
        elif row < n_fourier + n_gaussian:
            rows.append(minmax(rng.standard_normal(dofs.n_free)))
        else:
            rows.append(np.full(dofs.n_free, float(rng.uniform(0.0, 1.0))))
    return np.array(rows).reshape(sum(counts), dofs.n_free)


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
