"""Quadrilateral meshes, Dirichlet data, and the free/constrained dof partition.

Meshes are bilinear quads with counter-clockwise connectivity. Structured
grids are numbered row-major from the lower-left corner so that dof
orderings (and therefore checkpoints) are reproducible.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .errors import FingerprintError, ValidationError
from .textio import TokenReader, write_block

MESH_FORMAT = "folmesh"
MESH_VERSION = 1

# Jacobian magnitude below this is treated as a collapsed element.
SINGULAR_JACOBIAN_TOL = 1e-14


@dataclass(frozen=True)
class Mesh:
    """Immutable quad mesh: node coordinates, connectivity, tagged boundary sets."""

    nodes: np.ndarray  # (n_nodes, 2) float64 [m]
    elems: np.ndarray  # (n_elems, 4) int64, counter-clockwise
    boundary_sets: dict[str, np.ndarray]  # tag -> sorted unique node ids

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        elems = np.ascontiguousarray(np.asarray(self.elems, dtype=np.int64))
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValidationError(f"nodes must be (n, 2), got {nodes.shape}")
        if elems.ndim != 2 or elems.shape[1] != 4:
            raise ValidationError(f"elems must be (m, 4), got {elems.shape}")
        bsets = {}
        for tag, ids in self.boundary_sets.items():
            arr = np.unique(np.asarray(ids, dtype=np.int64))
            arr.setflags(write=False)
            bsets[tag] = arr
        nodes.setflags(write=False)
        elems.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "boundary_sets", bsets)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elems.shape[0]


@dataclass(frozen=True)
class DirichletSpec:
    """Prescribed temperatures keyed by boundary tag."""

    entries: dict[str, float]


@dataclass(frozen=True)
class DofMap:
    """Partition of mesh nodes into free and Dirichlet-constrained dofs.

    Both lists are ascending in node index. ``node_to_slot[i]`` is the free
    slot for free nodes and ``-(k+1)`` for the k-th constrained node.
    ``fingerprint`` identifies the (mesh, constraint) pair; models and sample
    sets carry it, and ``check`` refuses one built for another problem.
    """

    free: np.ndarray  # (n_free,) node ids
    constrained_nodes: np.ndarray  # (n_con,) node ids
    constrained_values: np.ndarray  # (n_con,) prescribed temperatures
    node_to_slot: np.ndarray  # (n_nodes,)
    fingerprint: str

    def __post_init__(self):
        for name in ("free", "constrained_nodes", "constrained_values", "node_to_slot"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n_free(self) -> int:
        return self.free.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.node_to_slot.shape[0]

    def check(self, fingerprint: str, n_free: int, what: str) -> None:
        """Refuse an artifact (a model, a sample set) recorded as made for another
        problem. Its n_free is only named: widths are checked where arrays enter."""
        if fingerprint != self.fingerprint:
            raise FingerprintError(f"{what} was built for grid {fingerprint} ({n_free} free dofs), "
                                   f"not for {self.fingerprint} ({self.n_free} free dofs)")

    def extract_free(self, full: np.ndarray) -> np.ndarray:
        """Free-node values of a full nodal field, in dof order."""
        full = np.asarray(full, dtype=np.float64)
        if full.shape != (self.n_nodes,):
            raise ValidationError(
                f"field has {full.shape} entries, mesh has {self.n_nodes} nodes"
            )
        return full[self.free]

    def merge(self, free_values: np.ndarray) -> np.ndarray:
        """Assemble a full nodal field from free values plus prescribed ones."""
        free_values = np.asarray(free_values, dtype=np.float64)
        if free_values.shape != (self.n_free,):
            raise ValidationError(
                f"expected {self.n_free} free values, got {free_values.shape}"
            )
        full = np.empty(self.n_nodes, dtype=np.float64)
        full[self.free] = free_values
        full[self.constrained_nodes] = self.constrained_values
        return full


def build_structured_grid(nx: int, ny: int, width: float, height: float) -> Mesh:
    """Regular nx-by-ny node grid on [0, width] x [0, height].

    Nodes are numbered row-major from (0, 0); each quad starts at its
    lower-left node and runs counter-clockwise. Boundary tags are "left",
    "right", "top", "bottom"; corner nodes appear in both adjacent tags.
    """
    if nx < 2 or ny < 2:
        raise ValidationError(f"grid needs at least 2 nodes per direction, got {nx}x{ny}")
    if not (np.isfinite([width, height]).all() and width > 0 and height > 0):
        raise ValidationError(f"domain size must be positive and finite, got {width} x {height}")
    xs = np.linspace(0.0, width, nx)
    ys = np.linspace(0.0, height, ny)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")  # row-major over y-rows
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="xy")
    n0 = (iy * nx + ix).ravel()
    elems = np.column_stack([n0, n0 + 1, n0 + 1 + nx, n0 + nx])

    ids = np.arange(nx * ny).reshape(ny, nx)
    boundary_sets = {
        "left": ids[:, 0],
        "right": ids[:, -1],
        "bottom": ids[0, :],
        "top": ids[-1, :],
    }
    return Mesh(nodes, elems, boundary_sets)


def validate_mesh(m: Mesh) -> list[str]:
    """Check mesh invariants; returns one message per violation (empty = valid)."""
    from . import fem  # deferred: fem imports this module at top level

    diags: list[str] = []
    n = m.n_nodes
    elems = m.elems
    out_of_range = (elems < 0).any(axis=1) | (elems >= n).any(axis=1)
    ordered = np.sort(elems, axis=1)
    repeated = ~out_of_range & (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    for e in np.flatnonzero(out_of_range | repeated):
        conn = elems[e].tolist()
        if out_of_range[e]:
            diags.append(f"element {e}: node index out of range [0, {n}): {conn}")
        else:
            diags.append(f"element {e}: degenerate (repeated node ids {conn})")

    # per element, the first gauss point whose Jacobian is singular or negative
    good = np.flatnonzero(~(out_of_range | repeated))
    coords = m.nodes[elems[good]]
    points = fem.gauss_rule_2x2().points
    dets = np.stack([fem.jacobian_det(coords, xi, eta) for xi, eta in points])
    flagged = (np.abs(dets) < SINGULAR_JACOBIAN_TOL) | (dets < 0)
    first = flagged.argmax(axis=0)
    for j in np.flatnonzero(flagged.any(axis=0)):
        (xi, eta), det = points[first[j]], dets[first[j], j]
        if abs(det) < SINGULAR_JACOBIAN_TOL:
            diags.append(f"element {good[j]}: singular Jacobian at gauss point ({xi:.4f}, {eta:.4f})")
        else:
            diags.append(
                f"element {good[j]}: negative Jacobian at gauss point ({xi:.4f}, {eta:.4f})"
                " (connectivity not counter-clockwise?)"
            )

    for tag, ids in m.boundary_sets.items():
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            diags.append(f"boundary set {tag!r}: node index out of range [0, {n})")
    return diags


def build_dof_map(m: Mesh, d: DirichletSpec) -> DofMap:
    """Split nodes into free and constrained per the Dirichlet tags.

    A node under several tags must receive the same value everywhere
    (corner nodes belong to both adjacent boundary sets).
    """
    prescribed: dict[int, float] = {}
    for tag, value in d.entries.items():
        if tag not in m.boundary_sets:
            raise ValidationError(f"Dirichlet tag {tag!r} not among mesh boundary sets "
                                  f"{sorted(m.boundary_sets)}")
        for node in m.boundary_sets[tag].tolist():
            if node in prescribed and prescribed[node] != value:
                raise ValidationError(
                    f"node {node} prescribed both {prescribed[node]} and {value} "
                    f"(tag {tag!r})"
                )
            prescribed[node] = float(value)

    constrained_nodes = np.array(sorted(prescribed), dtype=np.int64)
    constrained_values = np.array([prescribed[i] for i in sorted(prescribed)], dtype=np.float64)
    mask = np.ones(m.n_nodes, dtype=bool)
    mask[constrained_nodes] = False
    free = np.flatnonzero(mask).astype(np.int64)

    node_to_slot = np.empty(m.n_nodes, dtype=np.int64)
    node_to_slot[free] = np.arange(free.size)
    node_to_slot[constrained_nodes] = -np.arange(1, constrained_nodes.size + 1)

    fp = _fingerprint(m, constrained_nodes, constrained_values)
    return DofMap(free, constrained_nodes, constrained_values, node_to_slot, fp)


def _fingerprint(m: Mesh, constrained_nodes: np.ndarray, constrained_values: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(m.nodes).tobytes())
    h.update(np.ascontiguousarray(m.elems).tobytes())
    h.update(np.ascontiguousarray(constrained_nodes).tobytes())
    h.update(np.ascontiguousarray(constrained_values).tobytes())
    return h.hexdigest()[:16]


def serialize_mesh(m: Mesh) -> str:
    """Render a mesh in the versioned text format (see load_mesh)."""
    f = io.StringIO()
    f.write(f"{MESH_FORMAT} {MESH_VERSION}\nnodes {m.n_nodes}\n")
    write_block(f, 3, np.arange(m.n_nodes), *m.nodes.T)
    f.write(f"elems {m.n_elems}\n")
    write_block(f, 5, np.arange(m.n_elems), *m.elems.T)
    for tag, ids in m.boundary_sets.items():
        f.write(f"bset {tag} {ids.size}\n")
        write_block(f, 16, ids)
    return f.getvalue()


def load_mesh(text: str) -> Mesh:
    """Parse the mesh text format and validate the result.

    Format (``#`` comments, ids 0-based and contiguous)::

        folmesh 1
        nodes N
        id x y            # N lines
        elems M
        id n0 n1 n2 n3    # M lines, counter-clockwise
        bset <tag> K      # optional, repeated; K node ids follow, may wrap
    """
    r = TokenReader(text)
    r.expect(MESH_FORMAT)
    version = r.next_token("format version", int)
    if version != MESH_VERSION:
        r.fail(f"unsupported {MESH_FORMAT} version {version}")
    nodes = np.column_stack(r.next_rows("node", r.next_keyed("nodes", int),
                                        ("x coordinate", float), ("y coordinate", float)))
    connectivity = [("connectivity node id", int)] * 4
    elems = np.column_stack(r.next_rows("element", r.next_keyed("elems", int), *connectivity))
    boundary_sets: dict[str, np.ndarray] = {}
    while not r.exhausted():
        tag = r.next_keyed("bset")
        if tag in boundary_sets:
            r.fail(f"duplicate boundary tag {tag!r}")
        (boundary_sets[tag],) = r.next_block(r.next_token("boundary node count", int),
                                             ("boundary node id", int))

    mesh = Mesh(nodes, elems, boundary_sets)
    diags = validate_mesh(mesh)
    if diags:
        raise ValidationError("invalid mesh:\n  " + "\n  ".join(diags))
    return mesh
