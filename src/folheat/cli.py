"""Command-line surface: reproducible experiments from one config file.

Exit codes: 0 success, 1 validation error (or a request too large to allocate),
2 numerical failure, 3 I/O error.
`--threads N` caps the BLAS/OpenMP worker budget and must be handled before
numpy loads, which is why all heavy imports live inside the subcommands.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

from .errors import NumericalError, ValidationError, number


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto exit code 1
        raise ValidationError(message)


def _number_type(kind, ok, wanted: str):
    """argparse type reading kind (int or float) by errors.number; text that is
    no number, or a value for which ok is false, is refused as not `wanted`."""
    def parse(text: str):
        try:
            if ok(value := number(text, kind)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")

    return parse


# NaN fails both comparisons; --threads is a worker count
_positive_float = _number_type(float, lambda v: 0 < v < math.inf, "a positive finite number")
_positive_int = _number_type(int, lambda v: v > 0, "a positive integer")
_INT = _number_type(int, lambda v: True, "an integer")
_FLOAT = _number_type(float, lambda v: True, "a number")


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")  # what --threads sets


def _thread_budget() -> str:
    """The thread caps in force, ``VAR=value`` for each variable --threads sets,
    ``unset`` for one the environment lacks."""
    return " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in _THREAD_VARS)


def _threads_parser() -> _Parser:
    """The top-level --threads flag alone, read before any subcommand's options."""
    p = _Parser(add_help=False)
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="cap BLAS/OpenMP threads (must be a top-level flag)")
    return p


@functools.cache  # the parser a process builds does not change while it runs
def _build_parser() -> _Parser:
    p = _Parser(prog="folheat", description=__doc__, parents=[_threads_parser()])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("gen-mesh", help="write a structured grid mesh file")
    q.add_argument("--nx", type=_INT, required=True)
    q.add_argument("--ny", type=_INT, required=True)
    q.add_argument("--width", type=_FLOAT, default=1.0)
    q.add_argument("--height", type=_FLOAT, default=1.0)
    q.add_argument("--out", required=True)

    q = sub.add_parser("validate", help="check a mesh file against the format and invariants")
    q.add_argument("--mesh", required=True)

    q = sub.add_parser("gen-samples", help="generate the training sample set")
    q.add_argument("--config", default=None)
    q.add_argument("--out", required=True)

    q = sub.add_parser("train", help="train a model per the config")
    q.add_argument("--config", default=None)
    q.add_argument("--samples", default=None,
                   help="reuse a gen-samples directory this config's recipe made")
    q.add_argument("--log-every", type=_INT, default=50)
    q.add_argument("--out", required=True)

    q = sub.add_parser("predict", help="roll out a trained model from an initial field")
    q.add_argument("--config", default=None)
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--init", required=True,
                   help="'canonical:<name>' or a field CSV path")
    q.add_argument("--steps", type=_INT, required=True)
    q.add_argument("--out", required=True)

    q = sub.add_parser("solve-fem", help="reference FE transient solve")
    q.add_argument("--config", default=None)
    q.add_argument("--init", required=True)
    q.add_argument("--steps", type=_INT, required=True)
    q.add_argument("--out", required=True)

    q = sub.add_parser("evaluate", help="per-step relative L2 error of pred vs ref")
    q.add_argument("--pred", required=True)
    q.add_argument("--ref", required=True)
    q.add_argument("--dt", type=_positive_float, default=None)
    q.add_argument("--out", default=None, help="error CSV path (default: <pred>/errors.csv)")
    q.add_argument("--assert-below", type=_positive_float, default=None,
                   help="exit 2 unless every step's E_rr is below this")

    q = sub.add_parser("benchmark", help="time model inference vs FE solve")
    q.add_argument("--config", default=None)
    q.add_argument("--checkpoint", required=True)
    q.add_argument("--steps", type=_INT, default=10)
    q.add_argument("--repeats", type=_INT, default=5)
    q.add_argument("--init", default="canonical:const05")
    q.add_argument("--out", default=None, help="report path (default: stdout only)")

    q = sub.add_parser("postprocess", help="flux, cross-sections, and resampled heatmap of a field")
    q.add_argument("--config", default=None)
    q.add_argument("--field", required=True, help="field CSV to post-process")
    q.add_argument("--sections", default="y=0.18,y=0.45,x=0.5")
    q.add_argument("--upsample", type=_INT, default=165)
    q.add_argument("--out", required=True)
    return p


@functools.cache  # the code a process runs does not change while it runs
def _git_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, cwd=Path(__file__).parent, timeout=5)
    except (OSError, subprocess.SubprocessError):  # no git, or it hung
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _write_manifest(out_dir: Path, command: str, cfg, extra: dict, dt: float | None = None) -> None:
    """out_dir/manifest.txt: command, build, the run's step as `dt <repr>` (read
    back by _manifest_dt) when it has one, the command's extra keys, and the config."""
    from . import __version__

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["folheat run manifest", f"version {__version__}", f"build {_git_hash()}",
             f"command {command}", *([] if dt is None else [f"dt {float(dt)!r}"])]
    lines += [f"{key} {value}" for key, value in extra.items()]
    lines += ["config:", *("  " + cfg_line for cfg_line in cfg.raw_text.splitlines())]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _manifest_dt(dir_path: Path) -> float | None:
    """The `dt` recorded in dir_path/manifest.txt, or None when there is none."""
    from .textio import read_text

    mf = dir_path / "manifest.txt"
    if not mf.exists():
        return None
    for line in read_text(mf).splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "dt":
            try:
                return _positive_float(parts[1])
            except argparse.ArgumentTypeError as exc:
                raise ValidationError(f"{mf}: dt {exc}") from None
    return None


def _problem(args):
    """(cfg, mesh, dofs) of the --config a command was given."""
    from .config import load_run_config
    from .mesh import build_dof_map

    cfg = load_run_config(args.config)
    mesh = cfg.build_mesh()
    return cfg, mesh, build_dof_map(mesh, cfg.dirichlet())


def _reduced(cfg, mesh, dofs, dt: float):
    """The config's system assembled on mesh and reduced to the free dofs for
    the implicit-Euler step dt, the step the network learns."""
    from .fem import assemble, reduce_system

    return reduce_system(assemble(mesh, cfg.conductivity(mesh), cfg.material()), dofs, dt, 1.0)


def _initial_field(spec: str, mesh, dofs):
    from .evaluation import canonical_test_fields
    from .fe_solver import load_field

    if spec.startswith("canonical:"):
        name = spec.split(":", 1)[1]
        fields = canonical_test_fields(mesh, dofs)
        if name not in fields:
            raise ValidationError(
                f"unknown canonical field {name!r}; choose from {sorted(fields)}"
            )
        return fields[name]
    field = load_field(spec, mesh)
    # prescribed values win over whatever the file carries on boundary nodes
    return dofs.merge(dofs.extract_free(field))


def cmd_gen_mesh(args) -> int:
    from .mesh import build_structured_grid, serialize_mesh

    mesh = build_structured_grid(args.nx, args.ny, args.width, args.height)
    Path(args.out).write_text(serialize_mesh(mesh))
    print(f"wrote {args.out}: {mesh.n_nodes} nodes, {mesh.n_elems} elements")
    return 0


def cmd_validate(args) -> int:
    from .mesh import load_mesh
    from .textio import read_text

    text = read_text(args.mesh)
    try:
        mesh = load_mesh(text)
    except ValidationError as exc:
        raise type(exc)(f"{args.mesh}: {exc}") from None
    print(f"{args.mesh}: valid ({mesh.n_nodes} nodes, {mesh.n_elems} elements, "
          f"tags {sorted(mesh.boundary_sets)})")
    return 0


def cmd_gen_samples(args) -> int:
    from .sampling import build_sample_set, save_sample_set

    cfg, mesh, dofs = _problem(args)
    counts, seed = cfg.sample_counts(), cfg.seed
    fp = cfg.fourier_params()
    ss = build_sample_set(counts, fp, mesh, dofs, seed)
    out = Path(args.out)
    save_sample_set(out, ss, fp)
    _write_manifest(out, "gen-samples", cfg, {"seed": seed, "counts": "/".join(map(str, counts))})
    print(f"wrote {out}: {ss.n_samples} samples x {ss.samples.shape[1]} free dofs "
          f"(fourier/gaussian/constant = {counts[0]}/{counts[1]}/{counts[2]}, seed {seed})")
    return 0


def cmd_train(args) -> int:
    from .neural import init_model, save_model
    from .sampling import build_sample_set, load_sample_set
    from .textio import write_csv
    from .training import train

    cfg, mesh, dofs = _problem(args)
    tc = cfg.train_config(args.log_every)
    rs = _reduced(cfg, mesh, dofs, cfg.dt)
    counts, fp = cfg.sample_counts(), cfg.fourier_params()
    if args.samples:  # refused unless this config's recipe made it, for this grid
        samples = load_sample_set(args.samples, counts, fp, dofs, cfg.seed)
    else:
        samples = build_sample_set(counts, fp, mesh, dofs, cfg.seed)

    model = init_model(cfg.arch, mesh, dofs, cfg.hidden_spec(), cfg.activation,
                       seed=cfg.seed, dt=rs.dt)
    model, record = train(model, rs, dofs, samples, tc)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.folmodel")
    write_csv(out / "loss_history.csv", ["epoch", "mean_loss"], [range(len(record)), record])
    _write_manifest(out, "train", cfg, {"seed": cfg.seed, "final_loss": repr(float(record[-1]))},
                    rs.dt)
    print(f"wrote {out}/model.folmodel ({cfg.arch}, {cfg.activation}); "
          f"final mean loss {record[-1]:.6e}")
    return 0


def cmd_predict(args) -> int:
    from .evaluation import rollout
    from .fe_solver import Trajectory, save_trajectory
    from .neural import load_model

    cfg, mesh, dofs = _problem(args)
    model = load_model(args.checkpoint, dofs)
    t0 = _initial_field(args.init, mesh, dofs)
    result = rollout(model, dofs, t0, args.steps)
    out = Path(args.out)
    save_trajectory(out, mesh, Trajectory(result.trajectory))
    _write_manifest(out, "predict", cfg, {"steps": args.steps, "init": args.init}, model.dt)
    print(f"wrote {out}: {len(result.trajectory)} fields (dt {model.dt})")
    return 0


def cmd_solve_fem(args) -> int:
    from .fe_solver import save_trajectory, solve_transient

    cfg, mesh, dofs = _problem(args)
    rs = _reduced(cfg, mesh, dofs, cfg.dt)
    t0 = _initial_field(args.init, mesh, dofs)
    traj = solve_transient(rs, dofs, t0, args.steps)
    out = Path(args.out)
    save_trajectory(out, mesh, traj)
    _write_manifest(out, "solve-fem", cfg,
                    {"steps": args.steps, "init": args.init}, rs.dt)
    print(f"wrote {out}: {len(traj.fields)} fields (dt {rs.dt})")
    return 0


def cmd_evaluate(args) -> int:
    import numpy as np

    from .evaluation import per_step_errors
    from .fe_solver import load_trajectory, moved_node, step_filename
    from .textio import write_csv

    pred_dir, ref_dir = Path(args.pred), Path(args.ref)
    # every dt on record must agree, and there must be one
    on_record = [(name, value) for name, value in ((pred_dir, _manifest_dt(pred_dir)),
                                                   (ref_dir, _manifest_dt(ref_dir)),
                                                   ("--dt", args.dt)) if value is not None]
    if not on_record:
        raise ValidationError(
            f"no dt: pass --dt, or evaluate directories with a manifest.txt giving dt "
            f"({pred_dir}, {ref_dir} have none)"
        )
    (first, dt), *others = on_record
    for name, other in others:
        if other != dt:
            raise ValidationError(f"{first} was saved at dt {dt!r} and {name} at dt "
                                  f"{other!r}; their steps are different times")
    pred = load_trajectory(pred_dir)
    ref = load_trajectory(ref_dir)
    if len(pred.fields) != len(ref.fields):
        raise ValidationError(
            f"step-count mismatch: {len(pred.fields)} predicted vs {len(ref.fields)} reference"
        )
    for i, (xy_pred, xy_ref) in enumerate(zip(pred.nodes, ref.nodes)):
        if xy_pred.shape != xy_ref.shape or moved_node(xy_pred, xy_ref) is not None:
            raise ValidationError(
                f"{pred_dir / step_filename(i)} and {ref_dir / step_filename(i)} hold "
                f"different node coordinates; were they saved for different meshes?"
            )
    errors = per_step_errors(pred.fields, ref.fields)
    out = Path(args.out) if args.out else pred_dir / "errors.csv"
    write_csv(out, ["step", "t", "E_rr"], [range(errors.size), np.arange(errors.size) * dt, errors])
    marching = errors[1:] if errors.size > 1 else errors
    print(f"wrote {out}: mean E_rr {np.mean(marching):.6f}, "
          f"max {np.max(marching):.6f}, final {errors[-1]:.6f}")
    if args.assert_below is not None and not np.max(marching) < args.assert_below:
        raise NumericalError(
            f"max E_rr {np.max(marching):.6f} is not below {args.assert_below}"
        )
    return 0


def cmd_benchmark(args) -> int:
    from .evaluation import benchmark_speed
    from .neural import load_model

    cfg, mesh, dofs = _problem(args)
    model = load_model(args.checkpoint, dofs)
    rs = _reduced(cfg, mesh, dofs, model.dt)
    t0 = _initial_field(args.init, mesh, dofs)
    res = benchmark_speed(model, rs, dofs, t0, n_steps=args.steps, repeats=args.repeats)
    report = "\n".join([
        "folheat benchmark report",
        f"grid_free_dofs {dofs.n_free}",
        f"arch {model.arch}",
        f"n_steps {args.steps}",
        f"repeats {args.repeats}",
        f"thread_budget {_thread_budget()}",
        f"median_nn_seconds {res.t_nn!r}",
        f"median_fe_seconds {res.t_fe!r}",
        f"ratio_fe_over_nn {res.ratio!r}",
        f"ratio_defined {not math.isnan(res.ratio)}",
    ]) + "\n"
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report)
    return 0


def cmd_postprocess(args) -> int:
    from .config import load_run_config
    from .evaluation import cross_section, heat_flux, upsample_field, write_pgm
    from .fe_solver import load_field
    from .textio import write_csv

    cfg = load_run_config(args.config)
    mesh = cfg.build_mesh()  # no dof map: postprocess needs no Dirichlet tags
    k = cfg.conductivity(mesh)
    field = load_field(args.field, mesh)

    # everything is computed before anything is written: a refused request leaves no output
    requests = []
    for token in filter(None, map(str.strip, args.sections.split(","))):
        try:
            axis, value = token.split("=")
            requests.append((axis.strip(), number(value)))
        except ValueError:
            raise ValidationError(f"sections: expected axis=value, got {token!r}") from None
    sections = {f"section_{axis}_{value}.csv": cross_section(mesh, field, axis, value)
                for axis, value in requests}
    flux = heat_flux(mesh, k, field)
    grid = upsample_field(mesh, field, args.upsample, args.upsample)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for stale in out.glob("section_*.csv"):  # an earlier request's, which the manifest will not name
        if stale.name not in sections:
            stale.unlink()
    write_csv(out / "flux.csv", ["node_id", "x", "y", "qx", "qy"],
              [range(mesh.n_nodes), *mesh.nodes.T, *flux.T])
    for name, sec in sections.items():
        write_csv(out / name, ["coord", "value"], sec.T)
    write_csv(out / "upsampled.csv", None, grid.T)
    write_pgm(out / "upsampled.pgm", grid)
    _write_manifest(out, "postprocess", cfg,
                    {"field": args.field, "sections": args.sections, "upsample": args.upsample})
    print(f"wrote {out}: flux.csv, section CSVs, upsampled.csv/.pgm")
    return 0


_COMMANDS = {
    "gen-mesh": cmd_gen_mesh,
    "validate": cmd_validate,
    "gen-samples": cmd_gen_samples,
    "train": cmd_train,
    "predict": cmd_predict,
    "solve-fem": cmd_solve_fem,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "postprocess": cmd_postprocess,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # thread caps must land before numpy is imported by any subcommand
        if (threads := _threads_parser().parse_known_args(argv)[0].threads) is not None:
            for var in _THREAD_VARS:
                os.environ[var] = str(threads)
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - single translation point to exit codes
        if isinstance(exc, ValidationError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, MemoryError):  # numpy's names the size it could not allocate
            print(f"error: {exc or 'out of memory'}", file=sys.stderr)
            return 1
        if isinstance(exc, NumericalError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, OSError):
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
