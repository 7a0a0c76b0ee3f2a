"""The benchmark's tracer patches package names by hand (perfbench/tracer.py).
A deletion or rename of one of them fails here, in the package's own tests,
rather than in a benchmark run; so does a solver change that its PCG
iteration counter no longer sees, and so does a change to any package name
or field the benchmark's own self-test (perfbench/selftest.py) reads."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from folheat import fe_solver, fem
from folheat.errors import ConvergenceError
from folheat.fem import ConductivityField, MaterialParams

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_patch_and_restores_it(tracer_module):
    tracer = tracer_module.Tracer()
    with tracer.installed():
        patches = list(tracer._patches)
        wrapped = [tracer_module._get(owner, attr) is not original for owner, attr, original in patches]
    assert patches and all(wrapped)
    assert len(patches) == len(tracer._targets())
    assert tracer.restored()


def _iterations_to_converge(A, b) -> int:
    """The smallest max_iter with which linear_solve_spd solves A x = b; with
    one fewer it raises ConvergenceError."""
    max_iter = 0
    while True:
        try:
            fe_solver.linear_solve_spd(A, b, max_iter=max_iter)
            return max_iter
        except ConvergenceError:
            max_iter += 1


def test_pcg_counter_counts_every_iteration(tracer_module, grid11):
    """The tracer counts PCG iterations as the A @ p products of a counting
    A_ff, so a solver that stops calling A @ p reads 0 iterations here."""
    mesh, dofs = grid11
    sys_mats = fem.assemble(mesh, ConductivityField(np.ones(mesh.n_nodes)), MaterialParams())
    t0 = np.sin(np.pi * mesh.nodes[:, 1])
    rs = fem.reduce_system(sys_mats, dofs, 0.05, 1.0)
    fields = fe_solver.solve_transient(rs, dofs, t0, 3).fields
    expected = sum(_iterations_to_converge(rs.A_ff, rs.B_ff @ dofs.extract_free(t) + rs.rhs_const)
                   for t in fields[:-1])
    tracer = tracer_module.Tracer()
    with tracer.installed():
        traced = fe_solver.solve_transient(fem.reduce_system(sys_mats, dofs, 0.05, 1.0), dofs, t0, 3)
    assert tracer.restored()
    assert all(np.array_equal(a, b) for a, b in zip(traced.fields, fields))
    assert tracer.counts["pcg_solves"] == 3
    assert tracer.counts["pcg_iters"] == expected > 0


def test_benchmark_selftest_passes():
    """perfbench/selftest.py runs the three workloads shrunken, traced and
    untraced, through the package names and fields the benchmark reads."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
