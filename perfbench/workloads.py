"""The three closed-loop workloads: one caller issues each operation and waits
for its result; there is no queue and no server.

A workload is built from its seed alone. `prepare` makes untimed inputs,
`setup` is the timed set-up a user pays before the first result, `run_pass`
issues one round of operations, and `verify` runs the checks that need more
than one operation's output (fe_post_81 compares the CLI output with an
in-process solve). Every operation is timed on its own; per-operation checks
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import copy
import io
import shutil
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from folheat import cli, config, evaluation, fe_solver, fem, neural, sampling, training
from folheat.errors import FolheatError
from folheat.fem import ConductivityField, MaterialParams
from folheat.mesh import DirichletSpec, build_dof_map, build_structured_grid

ARCHS = ("fully_connected", "elementwise", "separated")
DIRICHLET = DirichletSpec({"left": 1.0, "right": 0.0})
DT = 0.05
STEPS = 10
FE_RESIDUAL_TOL = 1e-11


class Ops:
    """Attempted and failed operation counts, and seconds per operation kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)

    def run(self, kind, fn, *args):
        """Time one operation; a raised FolheatError counts as a failure."""
        self.attempted += 1
        tic = perf_counter()
        try:
            out = fn(*args)
        except FolheatError as exc:
            self.fail(kind, f"raised {type(exc).__name__}: {exc}")
            return None
        self.times[kind].append(perf_counter() - tic)
        return out

    def fail(self, kind, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")


def fe_residual_max(rs, dofs, fields) -> float:
    """Largest ||A_ff T^{n+1}_f - B_ff T^n_f - r_d|| / ||B_ff T^n_f + r_d|| over steps."""
    worst = 0.0
    for t_n, t_next in zip(fields[:-1], fields[1:]):
        rhs = rs.B_ff @ dofs.extract_free(t_n) + rs.rhs_const
        res = rs.A_ff @ dofs.extract_free(t_next) - rhs
        worst = max(worst, float(np.linalg.norm(res) / np.linalg.norm(rhs)))
    return worst


def _check_fe(ops, kind, rs, dofs, traj):
    fields = np.asarray(traj.fields)
    if not np.isfinite(fields).all():
        ops.fail(kind, "non-finite temperature")
        return
    worst = fe_residual_max(rs, dofs, traj.fields)
    if not worst <= FE_RESIDUAL_TOL:
        ops.fail(kind, f"implicit-Euler residual {worst:.3e} > {FE_RESIDUAL_TOL}")


def _blocks(values, n_blocks):
    """Split a per-operation list into n_blocks consecutive chunks."""
    n_blocks = max(1, min(n_blocks, len(values)))
    return [list(c) for c in np.array_split(np.asarray(values), n_blocks)]


def _structured_problem(n):
    mesh = build_structured_grid(n, n, 1.0, 1.0)
    dofs = build_dof_map(mesh, DIRICHLET)
    sys_mats = fem.assemble(mesh, ConductivityField.homogeneous(mesh), MaterialParams())
    rs = fem.reduce_system(sys_mats, dofs, DT, 1.0)
    return mesh, dofs, rs


class Workload:
    """Defaults shared by the workloads; `notes` collects defects worth
    reporting that do not make a result wrong."""

    min_passes = 3

    def __init__(self, seed, work: Path):
        self.seed = seed
        self.work = work
        self.notes: list[str] = []

    def prepare(self):
        pass

    def verify(self, st) -> list[str]:
        return []

    def models(self, st) -> dict:
        return {}

    def tapes(self, st) -> dict:
        return {}


class TrainDesk(Workload):
    """The desk recipe on the 11x11 grid: fixed Adam epochs, then fixed
    full-batch L-BFGS epochs from a fresh copy of the same seeded model."""

    name = "train_desk"
    grid = 11
    counts = (1200, 1500, 300)
    adam_epochs = 5
    lbfgs_epochs = 8
    batch_size = 60

    def setup(self):
        mesh, dofs, rs = _structured_problem(self.grid)
        samples = sampling.build_sample_set(
            self.counts, sampling.FourierParams(), mesh, dofs, self.seed
        )
        model = neural.init_model("separated", mesh, dofs, None, "swish", seed=self.seed, dt=DT)
        return {"dofs": dofs, "rs": rs, "samples": samples, "model": model}

    def _phase(self, st, ops, optimizer, epochs):
        model = copy.deepcopy(st["model"])
        tc = training.TrainConfig(epochs=epochs, batch_size=self.batch_size, lr=1e-3,
                                  optimizer=optimizer, seed=self.seed)
        out = ops.run(optimizer, training.train, model, st["rs"], st["dofs"], st["samples"], tc)
        if out is None:
            return {}
        model, record = out
        if not np.isfinite(record).all():
            ops.fail(optimizer, "non-finite epoch loss")
        elif optimizer == "adam" and not record[-1] < record[0]:
            ops.fail(optimizer, f"last epoch loss {record[-1]!r} not below first {record[0]!r}")
        return {f"{optimizer}.loss": record, f"{optimizer}.params": model.params_flat()}

    def run_pass(self, st, ops):
        out = self._phase(st, ops, "adam", self.adam_epochs)
        out.update(self._phase(st, ops, "lbfgs", self.lbfgs_epochs))
        self.last = out
        return out

    def models(self, st):
        return {"separated": st["model"]}

    def tapes(self, st):
        data = st["samples"].samples
        return {"adam": (st["model"], data[: self.batch_size]), "lbfgs": (st["model"], data)}

    def metrics(self, ops):
        n = sum(self.counts)
        adam = [t / self.adam_epochs for t in ops.times["adam"]]
        lbfgs = [t / self.lbfgs_epochs for t in ops.times["lbfgs"]]
        loss = self.last.get("adam.loss", [float("nan")])
        return {
            "stage_a_s": ("s", "lower", adam),
            "stage_b_s": ("s", "lower", lbfgs),
            "train_samples_per_s": ("samples/s", "higher", [n / t for t in adam]),
            "lbfgs_step_s": ("s", "lower", lbfgs),
            "train_loss_final": ("loss", "lower", [float(loss[-1])]),
        }


class Rollout21(Workload):
    """Batch-1 roll-outs of the five canonical fields with each architecture,
    then the FE (PCG) solve of the same fields, on the 21x21 grid."""

    name = "rollout_21"
    grid = 21
    min_passes = 20
    n_blocks = 20

    def prepare(self):
        mesh = build_structured_grid(self.grid, self.grid, 1.0, 1.0)
        dofs = build_dof_map(mesh, DIRICHLET)
        for arch in ARCHS:
            model = neural.init_model(arch, mesh, dofs, None, "swish", seed=self.seed, dt=DT)
            neural.save_model(model, self.work / f"{arch}.folmodel")

    def setup(self):
        mesh, dofs, rs = _structured_problem(self.grid)
        fields = evaluation.canonical_test_fields(mesh, dofs)
        models = {a: neural.load_model(self.work / f"{a}.folmodel", dofs) for a in ARCHS}
        return {"dofs": dofs, "rs": rs, "fields": fields, "models": models}

    def run_pass(self, st, ops):
        dofs, out = st["dofs"], {}
        for arch in ARCHS:
            for name, t0 in st["fields"].items():
                kind = f"nn.{arch}"
                res = ops.run(kind, evaluation.rollout, st["models"][arch], dofs, t0, STEPS)
                if res is None:
                    continue
                traj = np.asarray(res.trajectory)
                if not np.isfinite(traj).all():
                    ops.fail(kind, f"{name}: non-finite roll-out")
                elif not (traj[:, dofs.constrained_nodes] == dofs.constrained_values).all():
                    ops.fail(kind, f"{name}: Dirichlet values not held")
                out[f"{arch}.{name}"] = traj
        for name, t0 in st["fields"].items():
            traj = ops.run("fe", fe_solver.solve_transient, st["rs"], dofs, t0, STEPS)
            if traj is not None:
                _check_fe(ops, "fe", st["rs"], dofs, traj)
                out[f"fe.{name}"] = np.asarray(traj.fields)
        return out

    def models(self, st):
        return st["models"]

    def metrics(self, ops):
        # throughput is total work over total time within each block of the
        # loop; single-call medians of sub-millisecond roll-outs are too noisy
        per_traj = {k: [sum(b) / len(b) for b in _blocks(v, self.n_blocks)]
                    for k, v in ops.times.items()}
        nn = [sum(parts) for parts in zip(*(per_traj[f"nn.{a}"] for a in ARCHS))]
        short = {"fully_connected": "fc", "elementwise": "elem", "separated": "sep"}
        out = {
            "stage_a_s": ("s", "lower", nn),
            "stage_b_s": ("s", "lower", per_traj["fe"]),
        }
        for arch in ARCHS:
            out[f"nn_{short[arch]}_traj_per_s"] = (
                "traj/s", "higher", [1.0 / t for t in per_traj[f"nn.{arch}"]])
        out["fe_traj_per_s"] = ("traj/s", "higher", [1.0 / t for t in per_traj["fe"]])
        return out


class FePost81(Workload):
    """`solve-fem` then `postprocess` through the CLI on an 81x81 mesh file
    with seeded circular low-conductivity inclusions."""

    name = "fe_post_81"
    grid = 81
    upsample = 165
    # solve-fem is the shorter command; a pass samples it three times so its
    # statistics span about as much run time as postprocess gets
    solves_per_pass = 3

    def prepare(self):
        # jitter the default inclusions: same count and contrast, seeded layout
        rng = np.random.default_rng(self.seed)
        circles = [
            (cx + rng.uniform(-0.05, 0.05), cy + rng.uniform(-0.05, 0.05),
             r * rng.uniform(0.9, 1.1))
            for cx, cy, r in ((0.3, 0.65, 0.17), (0.7, 0.3, 0.15), (0.55, 0.82, 0.1))
        ]
        self.circles = "; ".join(",".join(repr(float(v)) for v in c) for c in circles)

    @staticmethod
    def _cli(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue().strip()

    def setup(self):
        rc, err = self._cli(["gen-mesh", "--nx", str(self.grid), "--ny", str(self.grid),
                             "--out", str(self.work / "mesh.folmesh")])
        if rc != 0:
            raise RuntimeError(f"gen-mesh exited {rc}: {err}")
        cfg = self.work / "run.cfg"
        cfg.write_text(
            "[mesh]\nsource = file\npath = mesh.folmesh\n\n"
            f"[conductivity]\nkind = inclusions\ncircles = {self.circles}\n"
        )
        return {"cfg": cfg}

    def _command(self, ops, kind, argv):
        ops.attempted += 1
        tic = perf_counter()
        rc, err = self._cli(argv)
        if rc != 0:
            ops.fail(kind, f"exit code {rc}: {err}")
        else:
            ops.times[kind].append(perf_counter() - tic)

    def run_pass(self, st, ops):
        fe_dir, post_dir = self.work / "fe", self.work / "post"
        cfg = str(st["cfg"])
        for _ in range(self.solves_per_pass):
            shutil.rmtree(fe_dir, ignore_errors=True)
            self._command(ops, "solve-fem", ["solve-fem", "--config", cfg,
                                             "--init", "canonical:sin10y",
                                             "--steps", str(STEPS), "--out", str(fe_dir)])
        shutil.rmtree(post_dir, ignore_errors=True)
        self._command(ops, "postprocess", ["postprocess", "--config", cfg,
                                           "--field", str(fe_dir / "step_0010.csv"),
                                           "--upsample", str(self.upsample),
                                           "--out", str(post_dir)])
        return {f"{d.name}/{p.name}": p.read_bytes()
                for d in (fe_dir, post_dir) if d.is_dir()
                for p in sorted(d.iterdir()) if p.name != "manifest.txt"}

    def verify(self, st):
        """Compare the CLI output with an in-process solve of the same problem."""
        fe_dir, post_dir = self.work / "fe", self.work / "post"
        if not (fe_dir / "step_0010.csv").is_file() or not (post_dir / "upsampled.csv").is_file():
            return ["the last pass left no solve-fem or postprocess output to check"]
        errors = []
        cfg = config.load_run_config(st["cfg"])
        mesh = cfg.build_mesh()
        dofs = build_dof_map(mesh, cfg.dirichlet())
        rs = fem.reduce_system(fem.assemble(mesh, cfg.conductivity(mesh), cfg.material()),
                               dofs, cfg.dt, 1.0)
        t0 = evaluation.canonical_test_fields(mesh, dofs)["sin10y"]
        ref = fe_solver.solve_transient(rs, dofs, t0, STEPS)
        worst = fe_residual_max(rs, dofs, ref.fields)
        if not worst <= FE_RESIDUAL_TOL:
            errors.append(f"reference implicit-Euler residual {worst:.3e} > {FE_RESIDUAL_TOL}")
        final = fe_solver.load_field(fe_dir / fe_solver.step_filename(STEPS), mesh)
        if not np.array_equal(final, ref.fields[-1]):
            errors.append("solve-fem step_0010.csv differs from the in-process solve")
        text = (post_dir / "upsampled.csv").read_text()
        if "np.float64(" in text:
            # numpy >= 2 reprs scalars as np.float64(v), which `fmt="%r"` writes out;
            # reported as a defect of the CSV, not counted against the values
            self.notes.append("upsampled.csv holds np.float64(...) tokens, not plain floats")
            text = text.replace("np.float64(", "").replace(")", "")
        grid = np.loadtxt(io.StringIO(text), delimiter=",")
        n = self.upsample
        if grid.shape != (n, n):
            errors.append(f"upsampled grid is {grid.shape}, expected {(n, n)}")
        lo, hi = final.min(), final.max()
        slack = 1e-12 * max(1.0, abs(lo), abs(hi))
        if not (grid.min() >= lo - slack and grid.max() <= hi + slack):
            errors.append(f"upsampled values [{grid.min()}, {grid.max()}] leave [{lo}, {hi}]")
        pgm = (post_dir / "upsampled.pgm").read_bytes()
        header = f"P5\n{n} {n}\n255\n".encode()
        if not pgm.startswith(header) or len(pgm) != len(header) + n * n:
            errors.append("upsampled.pgm header or size does not match the grid")
        return errors

    def metrics(self, ops):
        return {
            "stage_a_s": ("s", "lower", ops.times["solve-fem"]),
            "stage_b_s": ("s", "lower", ops.times["postprocess"]),
            "solve_fem_s": ("s", "lower", ops.times["solve-fem"]),
            "postprocess_s": ("s", "lower", ops.times["postprocess"]),
        }


WORKLOADS = {w.name: w for w in (TrainDesk, Rollout21, FePost81)}
