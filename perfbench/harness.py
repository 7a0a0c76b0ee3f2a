"""Timed and traced runs of one workload, and their metric tables."""

from __future__ import annotations

import hashlib
import resource
import statistics
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import record
from tracer import Tracer
from workloads import ARCHS, Ops

MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0  # cheap set-ups repeat until they add up to this
MAX_SETUPS = 50


def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        value = outputs[key]
        h.update(key.encode())
        h.update(value if isinstance(value, bytes) else np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_run(wl, seconds):
    wl.prepare()
    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        tic = perf_counter()
        st = wl.setup()
        setups.append(perf_counter() - tic)
    ops = Ops()
    digests = set()
    start = perf_counter()
    passes = 0
    while passes < wl.min_passes or perf_counter() - start < seconds:
        digests.add(digest(wl.run_pass(st, ops)))
        passes += 1
    errors = ops.errors + wl.verify(st)
    if len(digests) != 1:
        errors.append(f"{passes} identical passes gave {len(digests)} different outputs")
    metrics = {"setup_s": ("s", "lower", setups), "peak_rss_mb": ("MB", "lower", [peak_rss_mb()])}
    metrics.update(wl.metrics(ops))
    return ops, errors, metrics


def traced_run(wl, seconds):
    wl.prepare()
    tracer = Tracer()
    ops = Ops()
    walls = {False: [], True: []}
    digests = {False: set(), True: set()}
    start = perf_counter()
    while not walls[True] or perf_counter() - start < seconds:
        for traced in (False, True):
            with tracer.installed() if traced else nullcontext():
                tic = perf_counter()
                st = wl.setup()
                out = wl.run_pass(st, ops)
                walls[traced].append(perf_counter() - tic)
            digests[traced].add(digest(out))
    errors = ops.errors + wl.verify(st)
    if not tracer.restored():
        errors.append("tracer left a wrapped attribute in place")
    if len(digests[False]) != 1 or digests[False] != digests[True]:
        errors.append("traced outputs differ from untraced outputs")
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    return ops, errors, layer_metrics(tracer, len(walls[True]), overhead, wl, st)


def layer_metrics(tr, units, overhead, wl, st):
    """Per-layer metrics per traced unit (one set-up plus one pass)."""
    totals = tr.layer_totals()

    def calls(name):
        return totals[name][0] / units if name in totals else 0.0

    def busy(name):
        return totals[name][1] / units if name in totals else 0.0

    def self_s(name):
        return totals[name][2] / units if name in totals else 0.0

    c = tr.counts
    m = {
        "mesh.load_mesh.busy_s": ("s", busy("mesh.load_mesh")),
        "mesh.validate_mesh.busy_s": ("s", busy("mesh.validate_mesh")),
        "mesh.DofMap.merge.calls": ("count", calls("mesh.DofMap.merge")),
        "mesh.DofMap.merge.busy_s": ("s", busy("mesh.DofMap.merge")),
        "config.load_run_config.busy_s": ("s", busy("config.load_run_config")),
        "fem.assemble.busy_s": ("s", busy("fem.assemble")),
        "fem.reduce_system.busy_s": ("s", busy("fem.reduce_system")),
        "fem.element_mass.calls": ("count", c["fem.element_mass"] / units),
        "fem.element_stiffness.calls": ("count", c["fem.element_stiffness"] / units),
        "fem.b_matrix.calls": ("count", c["fem.b_matrix"] / units),
        "fe_solver.linear_solve_spd.calls": ("count", calls("fe_solver.linear_solve_spd")),
        "fe_solver.linear_solve_spd.busy_s": ("s", busy("fe_solver.linear_solve_spd")),
        "fe_solver.pcg_iters_per_solve": (
            "count", c["pcg_iters"] / c["pcg_solves"] if c["pcg_solves"] else 0.0),
        "fe_solver.rel_residual_max": ("ratio", tr.rel_residual_max),
        "fe_solver.save_trajectory.busy_s": ("s", busy("fe_solver.save_trajectory")),
        "fe_solver.save_trajectory.bytes": ("bytes", c["save_trajectory_bytes"] / units),
        "fe_solver.load_field.busy_s": ("s", busy("fe_solver.load_field")),
        "sampling.build_sample_set.busy_s": ("s", busy("sampling.build_sample_set")),
        "sampling.gen_fourier.calls": ("count", c["sampling.gen_fourier"] / units),
        "neural.forward_with_tape.calls": ("count", calls("neural.forward_with_tape")),
        "neural.forward_with_tape.busy_s": ("s", busy("neural.forward_with_tape")),
        "neural.forward_with_tape.self_s": ("s", self_s("neural.forward_with_tape")),
        "neural.backprop.calls": ("count", calls("neural.backprop")),
        "neural.backprop.busy_s": ("s", busy("neural.backprop")),
    }
    for arch in ARCHS:
        m[f"neural.forward_batch.{arch}.busy_s"] = ("s", busy(f"neural.forward_batch.{arch}"))
    for arch in ARCHS:
        t = tr.flop_time[arch]
        m[f"neural.forward.{arch}.gflop_per_s_computed"] = (
            "GFLOP/s", tr.flops[arch] / t / 1e9 if t > 0 else 0.0)
    m.update({
        "neural.load_model.busy_s": ("s", busy("neural.load_model")),
        "neural.load_model.bytes": ("bytes", c["load_model_bytes"] / units),
        "neural.set_params_flat.calls": ("count", calls("neural.set_params_flat")),
        "training.train.self_s": ("s", self_s("training.train")),
        "training.lbfgs_step.calls": ("count", calls("training.lbfgs_step")),
        "training.lbfgs_step.self_s": ("s", self_s("training.lbfgs_step")),
        "training.line_search_trials": (
            "count", (c["lbfgs_evals"] - c["lbfgs_steps"]) / units),
        "evaluation.rollout.self_s": ("s", self_s("evaluation.rollout")),
        "evaluation.heat_flux.busy_s": ("s", busy("evaluation.heat_flux")),
        "evaluation.cross_section.busy_s": ("s", busy("evaluation.cross_section")),
        "evaluation.upsample_field.busy_s": ("s", busy("evaluation.upsample_field")),
        "evaluation.canonical_test_fields.busy_s": ("s", busy("evaluation.canonical_test_fields")),
        "cli.solve-fem.self_s": ("s", self_s("cli.solve-fem")),
        "cli.postprocess.self_s": ("s", self_s("cli.postprocess")),
        "trace.overhead_frac": ("ratio", overhead),
    })
    models = wl.models(st)
    for arch in ARCHS:
        model = models.get(arch)
        m[f"neural.{arch}.param_bytes_computed"] = (
            "bytes", record.param_bytes(model) if model else 0)
        m[f"neural.{arch}.flops_per_sample_computed"] = (
            "flop", record.forward_flops_per_sample(model) if model else 0)
    tapes = wl.tapes(st)
    for phase in ("adam", "lbfgs"):
        m[f"training.{phase}_tape_bytes_computed"] = (
            "bytes", record.tape_bytes(*tapes[phase]) if phase in tapes else 0)
    m["host.llc_bytes"] = ("bytes", record.llc_bytes())
    return m


def print_end_to_end(metrics):
    print(f"{'metric':<22} {'unit':<10} {'better':<7} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for name, (unit, better, values) in metrics.items():
        med, q1, q3, n = summary(values)
        print(f"{name:<22} {unit:<10} {better:<7} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {n:>4}")


def print_layers(metrics):
    print(f"{'layer metric':<46} {'unit':<8} {'per traced unit':>16}")
    for name, (unit, value) in metrics.items():
        print(f"{name:<46} {unit:<8} {value:>16.6g}")
