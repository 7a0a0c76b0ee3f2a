"""Acceptance gate: every release criterion, one test per criterion, each at
its required tolerance. Run with `pytest tests/test_acceptance.py -v -s` to
see the per-criterion pass/fail lines.

The two training criteria (6, 7) share one sample set and run the full
desk-scale recipe; expect a few minutes each on a commodity CPU, at once
when two cores are free.
"""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from folheat.cli import main as cli_main
from folheat.evaluation import (
    benchmark_speed,
    canonical_test_fields,
    per_step_errors,
    rollout,
)
from folheat.fe_solver import solve_transient, steady_state, step_fe
from folheat.fem import (
    ConductivityField,
    MaterialParams,
    assemble,
    element_mass,
    element_stiffness,
    gauss_rule_2x2,
    reduce_system,
)
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid
from folheat.neural import count_params, init_model
from folheat.sampling import FourierParams, build_sample_set, gen_fourier
from folheat.training import TrainConfig, batch_loss, loss_gradient, residual_loss, train

SEED = 7
RECIPE = dict(epochs=1000, batch_size=60, lr=1e-3, optimizer="adam", seed=SEED)


def report(criterion: int, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def problem11():
    mesh = build_structured_grid(11, 11, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    return mesh, dofs


@pytest.fixture(scope="module")
def homogeneous11(problem11):
    mesh, dofs = problem11
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    return mesh, dofs, sys_mats, reduce_system(sys_mats, dofs, 0.05, 1.0)


@pytest.fixture(scope="module")
def heterogeneous11(problem11):
    mesh, dofs = problem11
    k = ConductivityField.inclusions(mesh)
    sys_mats = assemble(mesh, k, MaterialParams())
    return mesh, dofs, sys_mats, reduce_system(sys_mats, dofs, 0.05, 1.0)


@pytest.fixture(scope="module")
def samples3000(problem11):
    mesh, dofs = problem11
    return build_sample_set((1200, 1500, 300), FourierParams(), mesh, dofs, seed=SEED)


def train_recipe(mesh, dofs, rs, samples):
    """(model, record) of the desk recipe from the seeded initial model."""
    model = init_model("separated", mesh, dofs, seed=SEED)
    return train(model, rs, dofs, samples, TrainConfig(**RECIPE))


@pytest.fixture(scope="module")
def trained_pair(problem11, homogeneous11, heterogeneous11, samples3000):
    """The homogeneous and the heterogeneous model. With two cores they train
    at once in two spawned processes, whose BLAS thread caps come from this
    process's environment, so their bits are those of training here."""
    jobs = [(*problem11, system[3], samples3000) for system in (homogeneous11, heterogeneous11)]
    if len(os.sched_getaffinity(0)) < 2:
        return [train_recipe(*job) for job in jobs]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(train_recipe, *zip(*jobs)))


@pytest.fixture(scope="module")
def trained_homogeneous(trained_pair):
    return trained_pair[0]


@pytest.fixture(scope="module")
def trained_heterogeneous(trained_pair):
    return trained_pair[1]


def rollout_errors(model, dofs, rs, fields, n_steps=10):
    """Per-field arrays of E_rr over the marching steps 1..n_steps."""
    out = {}
    for name, t0 in fields.items():
        reference = solve_transient(rs, dofs, t0, n_steps)
        predicted = rollout(model, dofs, t0, n_steps)
        out[name] = per_step_errors(predicted.trajectory, reference.fields)[1:]
    return out


def test_criterion_1_element_matrix_oracles():
    tic = time.perf_counter()
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rule = gauss_rule_2x2()
    mass = element_mass(unit, MaterialParams(10.0, 1.0), rule)
    stiff = element_stiffness(unit, np.ones(4), rule)
    mass_exact = (10.0 / 36.0) * np.array(
        [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
    )
    stiff_exact = (1.0 / 6.0) * np.array(
        [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]], dtype=float
    )
    err = max(np.abs(mass - mass_exact).max(), np.abs(stiff - stiff_exact).max())
    wall = time.perf_counter() - tic
    report(1, err < 1e-13 and wall < 1.0, f"entrywise error {err:.2e}, {wall:.2f}s")


def test_criterion_2_fe_exactness(homogeneous11):
    tic = time.perf_counter()
    mesh, dofs, sys_mats, rs = homogeneous11
    t_ss = steady_state(sys_mats, dofs)
    steady_err = np.abs(t_ss - (1.0 - mesh.nodes[:, 0])).max()
    traj = solve_transient(rs, dofs, np.full(mesh.n_nodes, 0.5), 200)
    transient_err = np.abs(traj.fields[-1] - t_ss).max()
    wall = time.perf_counter() - tic
    report(
        2,
        steady_err < 1e-10 and transient_err < 1e-6 and wall < 5.0,
        f"steady {steady_err:.2e}, transient {transient_err:.2e}, {wall:.2f}s",
    )


def test_criterion_3_gradient_correctness():
    tic = time.perf_counter()
    mesh = build_structured_grid(3, 3, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
    rng = np.random.default_rng(3)
    batch = rng.uniform(0, 1, (4, dofs.n_free))
    h = 1e-6
    worst = 0.0
    for arch in ("separated", "elementwise", "fully_connected"):
        for act in ("swish", "tanh", "sigmoid", "relu"):
            model = init_model(arch, mesh, dofs, activation=act, seed=11)
            analytic = loss_gradient(rs, dofs, batch, model)
            p0 = model.params_flat()
            idx = rng.choice(p0.size, size=20, replace=False)
            floor = 1e-6 * max(1.0, float(np.abs(analytic).max()))
            for i in idx:
                p = p0.copy()
                p[i] += h
                model.set_params_flat(p)
                up = batch_loss(rs, dofs, batch, model)
                p[i] -= 2 * h
                model.set_params_flat(p)
                down = batch_loss(rs, dofs, batch, model)
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(analytic[i]), floor)
                worst = max(worst, abs(fd - analytic[i]) / denom)
            model.set_params_flat(p0)
    wall = time.perf_counter() - tic
    report(3, worst < 1e-5 and wall < 30.0,
           f"max relative error {worst:.2e} over 12 arch/activation pairs, {wall:.1f}s")


def test_criterion_4_cross_module_oracle(homogeneous11, heterogeneous11):
    tic = time.perf_counter()
    worst = 0.0
    for _, dofs, _, rs in (homogeneous11, heterogeneous11):
        rng = np.random.default_rng(4)
        for _ in range(50):
            t_n = dofs.merge(rng.uniform(0, 1, dofs.n_free))
            t_next = step_fe(rs, dofs, t_n)
            worst = max(
                worst,
                residual_loss(rs, dofs, dofs.extract_free(t_n), dofs.extract_free(t_next)),
            )
    wall = time.perf_counter() - tic
    report(4, worst < 1e-9 and wall < 10.0,
           f"max FE-step residual {worst:.2e} over 100 draws, {wall:.1f}s")


def test_criterion_5_parameter_counts(problem11):
    tic = time.perf_counter()
    mesh, dofs = problem11
    fc = count_params(init_model("fully_connected", mesh, dofs, seed=0))
    sep = count_params(init_model("separated", mesh, dofs, seed=0))
    wall = time.perf_counter() - tic
    report(5, fc == 121_139 and sep == 110_979 and wall < 1.0,
           f"fully_connected {fc}, separated {sep}, {wall:.2f}s")


def test_criterion_6_homogeneous_training(problem11, homogeneous11, trained_homogeneous):
    mesh, dofs = problem11
    _, _, _, rs = homogeneous11
    model, record = trained_homogeneous
    errors = rollout_errors(model, dofs, rs, canonical_test_fields(mesh, dofs))
    fields_ok = sum(bool(np.max(e) < 0.1) for e in errors.values())
    mean_final = float(np.mean([e[-1] for e in errors.values()]))
    detail = ", ".join(f"{n} {np.max(e):.3f}" for n, e in errors.items())
    report(
        6,
        fields_ok >= 4 and mean_final < 0.1,
        f"{fields_ok}/5 fields below 0.1 (max per field: {detail}); "
        f"mean final-step {mean_final:.4f}",
    )


def test_criterion_6b_loss_drop(trained_homogeneous):
    # training-curve property tied to the same run: two orders of magnitude
    _, record = trained_homogeneous
    drop = record[0] / record[-1]
    report(6, drop >= 100.0, f"epoch-loss drop {drop:.0f}x (first {record[0]:.3e}, "
                             f"last {record[-1]:.3e})")


def test_criterion_7_heterogeneous_training(problem11, heterogeneous11, trained_heterogeneous):
    mesh, dofs = problem11
    _, _, _, rs = heterogeneous11
    model, _ = trained_heterogeneous
    errors = rollout_errors(model, dofs, rs, canonical_test_fields(mesh, dofs))
    worst = max(float(np.max(e)) for e in errors.values())
    detail = ", ".join(f"{n} {np.max(e):.3f}" for n, e in errors.items())
    report(7, worst < 0.2, f"max per-field E_rr: {detail}")


def test_criterion_8_sample_generators(problem11):
    tic = time.perf_counter()
    mesh, dofs = problem11
    fp = FourierParams()
    a = build_sample_set((30, 30, 10), fp, mesh, dofs, seed=8)
    b = build_sample_set((30, 30, 10), fp, mesh, dofs, seed=8)
    in_range = a.samples.min() >= 0.0 and a.samples.max() <= 1.0
    deterministic = np.array_equal(a.samples, b.samples)
    degenerate = gen_fourier(
        FourierParams(n_terms=2, amp_x_ranges=((0.0, 0.0),), amp_y_ranges=((0.0, 0.0),)),
        mesh, dofs, np.random.default_rng(8),
    )
    degenerate_ok = bool(np.all(degenerate == 0.5))
    wall = time.perf_counter() - tic
    report(8, in_range and deterministic and degenerate_ok and wall < 5.0,
           f"range [{a.samples.min()}, {a.samples.max()}], deterministic {deterministic}, "
           f"degenerate-constant -> 0.5 {degenerate_ok}, {wall:.1f}s")


def test_criterion_9_speed_benchmark():
    tic = time.perf_counter()
    mesh = build_structured_grid(21, 21, 1.0, 1.0)
    dofs = build_dof_map(mesh, DirichletSpec({"left": 1.0, "right": 0.0}))
    sys_mats = assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    rs = reduce_system(sys_mats, dofs, 0.05, 1.0)
    model = init_model("fully_connected", mesh, dofs, seed=9, dt=0.05)
    t0 = canonical_test_fields(mesh, dofs)["const05"]
    res = benchmark_speed(model, rs, dofs, t0, n_steps=10, repeats=7)
    wall = time.perf_counter() - tic
    report(9, res.ratio > 1.0 and wall < 60.0,
           f"10-step inference {res.t_nn * 1e3:.2f} ms vs FE {res.t_fe * 1e3:.2f} ms, "
           f"ratio {res.ratio:.1f}x, {wall:.1f}s")


def test_criterion_10_pipeline_determinism(tmp_path):
    tic = time.perf_counter()
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(
        "[mesh]\nnx = 3\nny = 3\n\n[samples]\nfourier = 5\ngaussian = 5\nconstant = 2\n"
        "n_terms = 4\n\n[train]\nepochs = 2\nbatch_size = 5\n\n[run]\nseed = 10\n"
    )
    for tag in ("a", "b"):
        base = tmp_path / tag
        assert cli_main(["gen-samples", "--config", str(cfg), "--out", str(base / "samples")]) == 0
        assert cli_main(["train", "--config", str(cfg), "--samples", str(base / "samples"),
                         "--out", str(base / "run"), "--log-every", "0"]) == 0
        assert cli_main(["predict", "--config", str(cfg),
                         "--checkpoint", str(base / "run/model.folmodel"),
                         "--init", "canonical:gaussian", "--steps", "5",
                         "--out", str(base / "pred")]) == 0
        assert cli_main(["solve-fem", "--config", str(cfg), "--init", "canonical:gaussian",
                         "--steps", "5", "--out", str(base / "ref")]) == 0
    identical = True
    compared = 0
    for rel in ("samples/samples.npy", "samples/samples.json", "run/model.folmodel",
                "run/loss_history.csv", "pred/step_0005.csv", "ref/step_0005.csv"):
        compared += 1
        if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
            identical = False
    wall = time.perf_counter() - tic
    report(10, identical and wall < 60.0,
           f"{compared} artifacts byte-identical across reruns, {wall:.1f}s")
