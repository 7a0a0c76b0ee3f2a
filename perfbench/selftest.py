"""Checks of the benchmark itself, on shrunken workloads so they run in seconds.

    python3 -m pytest perfbench/selftest.py

The file name keeps it out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from folheat import evaluation, fe_solver, fem  # noqa: E402
from tracer import CountingCSR, Tracer  # noqa: E402
from workloads import FePost81, Rollout21, TrainDesk, _structured_problem  # noqa: E402

SMALL = {
    "train_desk": type("SmallTrainDesk", (TrainDesk,), {
        "counts": (40, 40, 20), "adam_epochs": 2, "lbfgs_epochs": 2, "batch_size": 30}),
    "rollout_21": type("SmallRollout", (Rollout21,), {"grid": 7}),
    "fe_post_81": type("SmallFePost", (FePost81,), {"grid": 9, "upsample": 17}),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_equal_untraced_and_attributes_restored(name, tmp_path):
    wl = SMALL[name](3, tmp_path)
    ops, errors, layers = harness.traced_run(wl, seconds=0)
    assert errors == [] and ops.failed == 0
    assert set(layers) == set(_declared("per_layer"))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = SMALL[name](3, tmp_path)
    ops, errors, metrics = harness.timed_run(wl, seconds=0)
    assert errors == [] and ops.failed == 0 and ops.attempted >= 2
    assert set(_declared("end_to_end")) <= set(metrics)
    for key in _declared("end_to_end"):
        assert all(v > 0 for v in metrics[key][2])


def test_tracer_restores_after_an_exception():
    tracer = Tracer()
    original = fem.assemble
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert fem.assemble is not original
            raise RuntimeError("boom")
    assert tracer.restored() and fem.assemble is original


@pytest.mark.parametrize("grid", [21, 81])
def test_counting_matrix_leaves_fe_trajectories_bitwise_equal(grid):
    mesh, dofs, rs = _structured_problem(grid)
    counted = fem.ReducedSystem(CountingCSR(rs.A_ff), rs.B_ff, rs.rhs_const, rs.dt, rs.alpha)
    for t0 in evaluation.canonical_test_fields(mesh, dofs).values():
        plain = fe_solver.solve_transient(rs, dofs, t0, 10)
        traced = fe_solver.solve_transient(counted, dofs, t0, 10)
        assert np.array_equal(np.asarray(plain.fields), np.asarray(traced.fields))
    assert counted.A_ff.matmuls > 0


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in _spec()["end_to_end"]] == list(run.END_TO_END)
    for m in _spec()["end_to_end"]:
        assert run.END_TO_END[m["name"]][:2] == (m["unit"], m["better"])
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout_21", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return [m["name"] for m in _spec()[kind]]
