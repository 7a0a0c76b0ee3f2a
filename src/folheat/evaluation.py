"""Roll-out prediction, error metrics, flux recovery, field sampling, and the
NN-vs-FE speed benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import neural, sampling
from .errors import ValidationError
from .fe_solver import solve_transient
from .fem import (
    ConductivityField,
    ReducedSystem,
    b_matrix,
    gauss_rule_2x2,
    shape_gradients_ref,
    shape_values,
)
from .mesh import DofMap, Mesh
from .neural import ModelBundle

LINE_TOL = 1e-9  # nodes this close to a section line count as lying on it
CANONICAL_GAUSSIAN_SEED = 1234
UPSAMPLE_PAIRS = 8192  # (element, point) pairs per batched Newton pass; bounds its temporaries


@dataclass(frozen=True)
class RolloutResult:
    """Autoregressive prediction; trajectory[0] is the initial full field."""

    trajectory: list[np.ndarray]


@dataclass(frozen=True)
class BenchmarkResult:
    t_nn: float  # median seconds for n_steps network inferences
    t_fe: float  # median seconds for n_steps FE solves
    ratio: float  # t_fe / t_nn; NaN when undefined


def rollout(model: ModelBundle, dofs: DofMap, t0: np.ndarray, n_steps: int) -> RolloutResult:
    """March the learned operator: free values through the net, Dirichlet
    values re-inserted each step. Out-of-range temperatures are kept as-is."""
    dofs.check(model.fingerprint, model.n_free, "model")
    if n_steps < 0:
        raise ValidationError(f"n_steps must be >= 0, got {n_steps}")
    t0 = np.asarray(t0, dtype=np.float64)
    if t0.shape != (dofs.n_nodes,):
        raise ValidationError(f"t0 has shape {t0.shape}, mesh has {dofs.n_nodes} nodes")
    fields = [t0.copy()]
    free = dofs.extract_free(t0)
    for _ in range(n_steps):
        free = neural.forward_batch(model, free[None, :])[0]
        fields.append(dofs.merge(free))
    return RolloutResult(fields)


def relative_l2(t_nn: np.ndarray, t_fe: np.ndarray) -> float:
    """||t_nn - t_fe||_2 / ||t_fe||_2."""
    t_nn = np.asarray(t_nn, dtype=np.float64)
    t_fe = np.asarray(t_fe, dtype=np.float64)
    if t_nn.shape != t_fe.shape:
        raise ValidationError(f"shape mismatch: {t_nn.shape} vs {t_fe.shape}")
    ref = np.linalg.norm(t_fe)
    if ref == 0.0:
        raise ValidationError("reference field has zero norm")
    return float(np.linalg.norm(t_nn - t_fe) / ref)


def per_step_errors(pred: list[np.ndarray], ref: list[np.ndarray]) -> np.ndarray:
    """relative_l2 per step for two equal-length trajectories (step 0 included)."""
    if len(pred) != len(ref):
        raise ValidationError(f"trajectories have {len(pred)} vs {len(ref)} steps")
    return np.array([relative_l2(p, r) for p, r in zip(pred, ref)])


def heat_flux(mesh: Mesh, k: ConductivityField, t: np.ndarray) -> np.ndarray:
    """Nodal heat flux q = -k grad T, shape (n_nodes, 2).

    Gauss-point fluxes of each element are averaged (unweighted) onto all
    nodes of the elements touching a node.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (mesh.n_nodes,):
        raise ValidationError(f"field shape {t.shape} does not match mesh ({mesh.n_nodes})")
    if k.values.shape[0] != mesh.n_nodes:
        raise ValidationError("conductivity field does not match mesh")
    coords = mesh.nodes[mesh.elems]
    t_e = t[mesh.elems]
    k_e = k.values[mesh.elems]
    points = gauss_rule_2x2().points
    q_mean = np.zeros((mesh.n_elems, 2))
    for xi, eta in points:
        b, _ = b_matrix(coords, xi, eta)
        k_gp = k_e @ shape_values(xi, eta)
        q_mean += -k_gp[:, None] * (b @ t_e[:, :, None])[:, :, 0]
    q_mean /= points.shape[0]
    nodes = mesh.elems.ravel()  # each element's mean goes to its nodes, in element order
    acc = [np.bincount(nodes, np.repeat(q, mesh.elems.shape[1]), mesh.n_nodes) for q in q_mean.T]
    counts = np.maximum(np.bincount(nodes, minlength=mesh.n_nodes), 1)
    return np.column_stack(acc) / counts[:, None]


def cross_section(mesh: Mesh, field: np.ndarray, axis: str, value: float) -> np.ndarray:
    """Sample a field along the line axis=value; returns (free coordinate, value) rows.

    Nodes within 1e-9 of the line are used directly; otherwise the field is
    interpolated where the line crosses element edges (exact for the
    bilinear basis restricted to an edge).
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (mesh.n_nodes,):
        raise ValidationError(f"field shape {field.shape} does not match mesh")
    if axis not in ("x", "y"):
        raise ValidationError(f"axis must be 'x' or 'y', got {axis!r}")
    fixed = 0 if axis == "x" else 1
    moving = 1 - fixed
    coords = mesh.nodes[:, fixed]
    if not coords.min() - LINE_TOL <= value <= coords.max() + LINE_TOL:  # NaN included
        raise ValidationError(
            f"{axis}={value} lies outside the domain range [{coords.min()}, {coords.max()}]"
        )

    on_line = np.flatnonzero(np.abs(coords - value) <= LINE_TOL)
    if on_line.size:
        pts = np.column_stack([mesh.nodes[on_line, moving], field[on_line]])
        return pts[np.argsort(pts[:, 0])]

    # element edges in element order, each (0,1), (1,2), (2,3), (3,0)
    na, nb = mesh.elems.ravel(), np.roll(mesh.elems, -1, axis=1).ravel()
    ca, cb = coords[na], coords[nb]
    crosses = ~((ca - value) * (cb - value) > 0) & (ca != cb)
    na, nb, ca, cb = na[crosses], nb[crosses], ca[crosses], cb[crosses]
    t_param = (value - ca) / (cb - ca)
    pos = mesh.nodes[na, moving] + t_param * (mesh.nodes[nb, moving] - mesh.nodes[na, moving])
    val = field[na] + t_param * (field[nb] - field[na])
    # one point per round(pos / LINE_TOL), the last edge's; the key orders by pos
    _, last = np.unique(np.round(pos / LINE_TOL)[::-1], return_index=True)
    last = pos.size - 1 - last
    return np.column_stack([pos[last], val[last]])


def _expand(counts: np.ndarray):
    """(owner, rank) listing 0..counts[i]-1 for each i in turn."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _invert_bilinear(coords: np.ndarray, p: np.ndarray, tol: float = 1e-12):
    """Newton inversion of each element map (P, 4, 2) at its point p (P, 2).

    Every pair starts at (0, 0) and takes at most 25 steps; it stops once
    max |residual| < tol and is dropped once |xi|max exceeds 3 (the point is
    far from that element) or xi is not finite (a singular step). Each step
    computes only the pairs still iterating; their arrays are filtered only
    in a step where some pair stops. Returns (accepted, xi): accepted pairs
    end within the reference square up to 1e-9, and their xi is clipped onto
    it.
    """
    xi = np.zeros(p.shape)
    dropped = np.zeros(p.shape[0], dtype=bool)
    live, el, q, x = np.arange(p.shape[0]), coords, p, xi  # the pairs still iterating
    for _ in range(25):
        res = np.einsum("pi,pij->pj", shape_values(x[:, 0], x[:, 1]), el) - q
        going = np.maximum(np.abs(res[:, 0]), np.abs(res[:, 1])) >= tol
        if not going.all():
            live, el, q, x, res = live[going], el[going], q[going], x[going], res[going]
        if not live.size:
            break
        # solve jac^T step = res in closed form; jac rows are d(x,y)/dxi, d(x,y)/deta
        (a, b), (c, d) = np.moveaxis(shape_gradients_ref(x[:, 0], x[:, 1]) @ el, 0, -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            det = a * d - c * b
            x = np.column_stack([x[:, 0] - (d * res[:, 0] - c * res[:, 1]) / det,
                                 x[:, 1] - (a * res[:, 1] - b * res[:, 0]) / det])
        xi[live] = x
        near = np.maximum(np.abs(x[:, 0]), np.abs(x[:, 1])) <= 3.0
        if not near.all():
            dropped[live[~near]] = True
            live, el, q, x = live[near], el[near], q[near], x[near]
    inside = np.maximum(np.abs(xi[:, 0]), np.abs(xi[:, 1])) <= 1.0 + 1e-9
    return ~dropped & inside, np.clip(xi, -1.0, 1.0)


def upsample_field(mesh: Mesh, field: np.ndarray, rx: int, ry: int) -> np.ndarray:
    """Resample onto an rx-by-ry grid over the mesh bounding box.

    Row i is the i-th y level (ascending), column j the j-th x position.
    Each element is tried at the grid points inside its bounding box,
    widened by 1e-6 of its extent. A point on several elements takes the
    lowest-numbered element that accepts it. Query points outside the mesh
    are NaN.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != (mesh.n_nodes,):
        raise ValidationError(f"field shape {field.shape} does not match mesh")
    if rx < 2 or ry < 2:
        raise ValidationError(f"resampling grid must be at least 2x2, got {rx}x{ry}")
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    xs, ys = np.linspace(lo[0], hi[0], rx), np.linspace(lo[1], hi[1], ry)
    # each element's box, widened to take the points _invert_bilinear accepts just outside it,
    # covers the grid columns col0 .. col0 + ncol - 1 and rows row0 .. row0 + nrow - 1
    corners = mesh.nodes[mesh.elems.T]  # corner-major: the reductions run over long rows
    box_lo, box_hi = corners.min(axis=0), corners.max(axis=0)
    box_lo, box_hi = box_lo - 1e-6 * (box_hi - box_lo), box_hi + 1e-6 * (box_hi - box_lo)
    col0, row0 = np.searchsorted(xs, box_lo[:, 0]), np.searchsorted(ys, box_lo[:, 1])
    ncol = np.searchsorted(xs, box_hi[:, 0], "right") - col0
    nrow = np.searchsorted(ys, box_hi[:, 1], "right") - row0
    counts = ncol * nrow  # (element, point) pairs of each element

    out = np.full(rx * ry, np.nan)
    done = np.zeros(rx * ry, dtype=bool)
    # runs of whole elements in element order, a run starting every UPSAMPLE_PAIRS pairs
    starts = np.searchsorted(np.cumsum(counts) - counts, np.arange(0, counts.sum(), UPSAMPLE_PAIRS))
    cuts = [*starts, mesh.n_elems]
    for e0, e1 in zip(cuts[:-1], cuts[1:]):
        elem, k = _expand(counts[e0:e1])
        elem += e0
        point = (row0[elem] + k // ncol[elem]) * rx + col0[elem] + k % ncol[elem]
        todo = ~done[point]  # a point done in an earlier run has its lowest element
        elem, point = elem[todo], point[todo]
        nodes = mesh.elems[elem]
        accepted, xi = _invert_bilinear(mesh.nodes[nodes], np.column_stack([xs[point % rx], ys[point // rx]]))
        hit = np.flatnonzero(accepted)
        found, pick = np.unique(point[hit], return_index=True)
        pick = hit[pick]  # the first accepted pair of each point: its lowest element
        n = shape_values(xi[pick, 0], xi[pick, 1])
        out[found] = np.einsum("pi,pi->p", n, field[nodes[pick]])
        done[found] = True
    return out.reshape(ry, rx)


def canonical_test_fields(mesh: Mesh, dofs: DofMap) -> dict[str, np.ndarray]:
    """The five evaluation initial fields, Dirichlet entries overwritten."""
    x = mesh.nodes[:, 0]
    y = mesh.nodes[:, 1]
    gaussian_free = sampling.gen_gaussian(dofs, np.random.default_rng(CANONICAL_GAUSSIAN_SEED))
    raw = {
        "sin10y": 0.5 * (np.sin(10.0 * y) + 1.0),
        "gaussian": dofs.merge(gaussian_free),
        "trig2": 0.5 * x**2 * np.abs(np.sin(10.0 * x) + np.cos(10.0 * y)),
        "const05": np.full(mesh.n_nodes, 0.5),
        "abs_sin10x": np.abs(np.sin(10.0 * x)),
    }
    return {name: dofs.merge(dofs.extract_free(f)) for name, f in raw.items()}


def benchmark_speed(
    model: ModelBundle,
    rs: ReducedSystem,
    dofs: DofMap,
    t0: np.ndarray,
    n_steps: int = 10,
    repeats: int = 5,
) -> BenchmarkResult:
    """Median wall-clock of n_steps network inferences vs n_steps FE solves.

    Both sides run in this process on whatever thread budget is active, so
    the comparison is apples-to-apples. A warm-up pass precedes the timing.
    """
    if repeats < 5:
        raise ValidationError(f"repeats must be >= 5 for a stable median, got {repeats}")
    rollout(model, dofs, t0, n_steps)  # warm-up
    solve_transient(rs, dofs, t0, n_steps)

    times_nn = []
    times_fe = []
    for _ in range(repeats):
        tic = time.perf_counter()
        rollout(model, dofs, t0, n_steps)
        times_nn.append(time.perf_counter() - tic)
        tic = time.perf_counter()
        solve_transient(rs, dofs, t0, n_steps)
        times_fe.append(time.perf_counter() - tic)
    t_nn = float(np.median(times_nn))
    t_fe = float(np.median(times_fe))
    ratio = t_fe / t_nn if n_steps > 0 and t_nn > 0 else float("nan")
    return BenchmarkResult(t_nn, t_fe, ratio)


def write_pgm(path, grid: np.ndarray) -> None:
    """8-bit grayscale PGM of a 2-d array; [min, max] of the finite values maps
    linearly to [0, 255], a value that is not finite (off the mesh) to 0.

    Rows are flipped so the first image row is the top of the domain. A
    constant field renders mid-gray.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ValidationError(f"PGM output needs a 2-d grid, got shape {grid.shape}")
    finite = np.isfinite(grid)
    lo = grid.min(initial=np.inf, where=finite)
    span = grid.max(initial=-np.inf, where=finite) - lo
    if span <= 0:
        pixels = np.full(grid.shape, 127, dtype=np.uint8)
    else:
        pixels = np.round((np.where(finite, grid, lo) - lo) / span * 255.0).astype(np.uint8)
    pixels[~finite] = 0
    pixels = pixels[::-1]
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
