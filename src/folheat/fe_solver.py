"""Reference finite-element time marcher and steady-state solver.

This is the ground truth the learned operator is judged against. The linear
solves use Jacobi-preconditioned conjugate gradients (the reduced operators
are SPD for alpha in {0.5, 1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .fem import ReducedSystem, SystemMatrices, split_blocks
from .mesh import DofMap, Mesh
from .textio import read_nodal_csv, write_csv_series

DEFAULT_TOL = 1e-12
# field CSV coordinates must match the mesh (or the field compared with) to this
# fraction of its extent
COORD_RTOL = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Time series of full nodal fields; fields[0] is the initial condition."""

    fields: list[np.ndarray]
    nodes: list[np.ndarray] | None = None  # each step's node x, y, when read from files


def linear_solve_spd(A, b: np.ndarray, tol: float = DEFAULT_TOL, max_iter: int | None = None) -> np.ndarray:
    """Solve A x = b for SPD A with Jacobi-preconditioned CG.

    Stops when ||A x - b|| <= tol * ||b||; deterministic for fixed inputs.
    """
    if tol <= 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if n == 0:
        return np.zeros(0)
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n)
    if not np.isfinite(norm_b):
        raise NumericalError(f"right-hand side norm is {norm_b}; the system cannot be solved")
    if max_iter is None:
        max_iter = 10 * n

    diag = A.diagonal()
    if not np.all(diag > 0):
        raise NumericalError("matrix diagonal has entries that are not positive; not SPD")

    x = np.zeros(n)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    target = tol * norm_b
    for _ in range(max_iter):
        ap = A @ p
        pap = float(p @ ap)
        if not pap > 0:  # NaN trips it too
            raise NumericalError("conjugate gradient broke down; matrix not SPD?")
        step = rz / pap
        x += step * p
        r -= step * ap
        if np.linalg.norm(r) <= target:
            return x
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"PCG did not converge in {max_iter} iterations: "
        f"residual {np.linalg.norm(r):.3e}, target {target:.3e}"
    )


def step_fe(rs: ReducedSystem, dofs: DofMap, t_n: np.ndarray) -> np.ndarray:
    """One implicit step: solve A_ff T_f = B_ff T^n_f + rhs_const, merge Dirichlet."""
    t_free = dofs.extract_free(t_n)
    rhs = rs.B_ff @ t_free + rs.rhs_const
    t_next_free = linear_solve_spd(rs.A_ff, rhs)
    return dofs.merge(t_next_free)


def solve_transient(rs: ReducedSystem, dofs: DofMap, t0: np.ndarray, n_steps: int) -> Trajectory:
    """March n_steps from t0; the initial field is stored unmodified."""
    if n_steps < 0:
        raise ValidationError(f"n_steps must be >= 0, got {n_steps}")
    fields = [np.array(t0, dtype=np.float64)]
    for _ in range(n_steps):
        fields.append(step_fe(rs, dofs, fields[-1]))
    return Trajectory(fields)


def steady_state(sys: SystemMatrices, dofs: DofMap) -> np.ndarray:
    """Long-time limit: solve K_ff T_f = -K_fd T_d."""
    if dofs.constrained_nodes.size == 0:
        raise NumericalError("steady state needs at least one Dirichlet dof (singular otherwise)")
    k_ff, k_fd = split_blocks(sys.K, dofs)
    rhs = -(k_fd @ dofs.constrained_values)
    t_free = linear_solve_spd(k_ff, rhs)
    return dofs.merge(t_free)


def load_field(path, mesh: Mesh | None = None) -> np.ndarray:
    """Read a `node_id,x,y,T` CSV back into a nodal array.

    A malformed row or a non-finite T is a ValidationError naming the source
    and line. Given a mesh, so is a row whose x, y are not its node's
    coordinates (to 1e-12 of the mesh extent): the field was saved for
    another mesh.
    """
    return _read_field(path, mesh)[0]


def _read_field(path, mesh: Mesh | None):
    """(T, x y) of a field CSV, checked as load_field describes."""
    columns = ["node_id", "x", "y", "T"]
    source, values, lines = read_nodal_csv(path, columns, None if mesh is None else mesh.n_nodes)
    bad = ~np.isfinite(values[:, 2])
    if bad.any():
        raise ValidationError(f"{source} line {lines[bad].min()}: T must be finite")
    xy = values[:, :2]
    if mesh is not None:
        e = moved_node(xy, mesh.nodes)
        if e is not None:
            raise ValidationError(
                f"{source} line {lines[e]}: node {e} lies at {tuple(xy[e].tolist())}, "
                f"the mesh has it at {tuple(mesh.nodes[e].tolist())}; "
                f"was the field saved for another mesh?"
            )
    return values[:, 2].copy(), xy


def moved_node(xy: np.ndarray, nodes: np.ndarray) -> int | None:
    """First node whose x, y differ from `nodes` by over COORD_RTOL of their extent, or None."""
    tol = COORD_RTOL * np.abs(nodes).max(initial=0.0)
    moved = np.flatnonzero(~(np.abs(xy - nodes) <= tol).all(axis=1))
    return int(moved[0]) if moved.size else None


def step_filename(i: int) -> str:
    return f"step_{i:04d}.csv"


def save_trajectory(out_dir, mesh: Mesh, traj: Trajectory) -> None:
    """Write field i of traj as out_dir/step_<i>.csv, in `node_id,x,y,T` rows,
    then remove the step files of an earlier, longer run that load_trajectory
    would read on past the last field."""
    fields = [np.asarray(values, dtype=np.float64) for values in traj.fields]
    for values in fields:
        if values.shape != (mesh.n_nodes,):
            raise ValidationError(f"field shape {values.shape} does not match mesh ({mesh.n_nodes})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv_series([out / step_filename(i) for i in range(len(fields))], ["node_id", "x", "y", "T"],
                     [range(mesh.n_nodes), *mesh.nodes.T], fields)
    i = len(fields)
    while (out / step_filename(i)).exists():
        (out / step_filename(i)).unlink()
        i += 1


def load_trajectory(in_dir, mesh: Mesh | None = None) -> Trajectory:
    in_path = Path(in_dir)
    fields, nodes = [], []
    while (in_path / step_filename(len(fields))).exists():
        t, xy = _read_field(in_path / step_filename(len(fields)), mesh)
        fields.append(t)
        nodes.append(xy)
    if not fields:
        raise ValidationError(f"no step_*.csv files found in {in_path}")
    return Trajectory(fields, nodes)
