"""Bilinear quad elements: shape functions, 2x2 Gauss quadrature, element
matrices, global assembly, and reduction to the free-dof system.

The element basis lives on the reference square [-1, 1]^2 with nodes ordered
counter-clockwise from (-1, -1). Nodal conductivity is interpolated to the
Gauss points with the same basis, so heterogeneous fields integrate exactly
for the 2x2 rule (integrands are at most cubic per axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, ValidationError
from .mesh import SINGULAR_JACOBIAN_TOL, DofMap, Mesh
from .textio import read_nodal_csv

GAUSS_COORD = 1.0 / np.sqrt(3.0)
# reference coordinates of the four element nodes, counter-clockwise from (-1, -1)
REF_NODES = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])

VALID_ALPHAS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (n, 2) reference coordinates
    weights: np.ndarray  # (n,)


@dataclass(frozen=True)
class MaterialParams:
    """Volumetric heat capacity factors: density [kg/m^3] and capacity [J/(kg K)]."""

    rho: float = 10.0
    c: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.c <= 0:
            raise ValidationError(f"rho and c must be positive, got {self.rho}, {self.c}")


@dataclass(frozen=True)
class ConductivityField:
    """Nodal thermal conductivity [W/(m K)], one value per mesh node."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise ValidationError(f"conductivity must be a 1-d nodal array, got {values.shape}")
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValidationError("conductivity values must be finite and strictly positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def homogeneous(cls, mesh: Mesh, value: float = 1.0) -> "ConductivityField":
        return cls(np.full(mesh.n_nodes, float(value)))

    @classmethod
    def inclusions(
        cls,
        mesh: Mesh,
        circles=((0.3, 0.65, 0.17), (0.7, 0.3, 0.15), (0.55, 0.82, 0.1)),
        background: float = 1.0,
        inclusion: float = 0.1,
    ) -> "ConductivityField":
        """Background conductivity with low-conductivity circular inclusions.

        ``circles`` is a sequence of (cx, cy, radius); a node inside any
        circle takes the inclusion value.
        """
        x = mesh.nodes[:, 0]
        y = mesh.nodes[:, 1]
        values = np.full(mesh.n_nodes, float(background))
        for cx, cy, r in circles:
            inside = (x - cx) ** 2 + (y - cy) ** 2 <= r**2
            values[inside] = float(inclusion)
        return cls(values)


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled global mass and stiffness matrices (CSR, symmetric)."""

    M: sp.csr_array
    K: sp.csr_array


@dataclass(frozen=True)
class ReducedSystem:
    """Free-dof time stepping operators for one (dt, alpha) choice.

    A_ff = M_ff + alpha*dt*K_ff acts on the unknown next step;
    B_ff = M_ff - (1-alpha)*dt*K_ff acts on the current step;
    rhs_const = -dt*K_fd*T_d collects the (time-constant) Dirichlet coupling.
    """

    A_ff: sp.csr_array
    B_ff: sp.csr_array
    rhs_const: np.ndarray
    dt: float
    alpha: float


def gauss_rule_2x2() -> QuadratureRule:
    """Tensor 2x2 Gauss rule on [-1, 1]^2 (exact through cubic per axis)."""
    return QuadratureRule(GAUSS_COORD * REF_NODES, np.ones(4))


def shape_values(xi, eta) -> np.ndarray:
    """Bilinear basis values [N1..N4] at reference points, shape (..., 4)."""
    xi, eta = np.expand_dims(xi, -1), np.expand_dims(eta, -1)
    return 0.25 * ((1 + REF_NODES[:, 0] * xi) * (1 + REF_NODES[:, 1] * eta))


def shape_gradients_ref(xi, eta) -> np.ndarray:
    """Reference-space basis gradients, rows (d/dxi, d/deta), shape (..., 2, 4)."""
    xi, eta = np.expand_dims(xi, -1), np.expand_dims(eta, -1)
    return 0.25 * np.stack(
        [REF_NODES[:, 0] * (1 + REF_NODES[:, 1] * eta), REF_NODES[:, 1] * (1 + REF_NODES[:, 0] * xi)],
        axis=-2,
    )


def _check_singular(det: np.ndarray, xi, eta) -> None:
    singular = np.abs(det) < SINGULAR_JACOBIAN_TOL
    if singular.any():
        first = int(np.flatnonzero(singular)[0])
        where = f" in element {first}" if det.ndim else ""
        raise NumericalError(
            f"singular element Jacobian (det={det.flat[first]:.3e}) at ({xi}, {eta}){where}"
        )


def jacobian_det(elem_coords: np.ndarray, xi: float, eta: float) -> np.ndarray:
    """det of the isoparametric maps' Jacobians at one reference point.

    `elem_coords` is (..., 4, 2); the result has shape (...).
    """
    jac = shape_gradients_ref(xi, eta) @ np.asarray(elem_coords, dtype=np.float64)
    return jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]


def b_matrix(elem_coords: np.ndarray, xi: float, eta: float):
    """Physical-space basis gradients and Jacobian determinants at one point.

    For `elem_coords` of shape (..., 4, 2) returns (B, detJ) with B rows
    (dN_i/dx, dN_i/dy), shape (..., 2, 4), and detJ of shape (...).
    Raises NumericalError naming the first element whose map is singular.
    """
    grad_ref = shape_gradients_ref(xi, eta)
    jac = grad_ref @ np.asarray(elem_coords, dtype=np.float64)  # rows: d(x,y)/dxi, d(x,y)/deta
    det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
    _check_singular(det, xi, eta)
    adjugate = np.swapaxes(jac[..., ::-1, ::-1], -1, -2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return adjugate / det[..., None, None] @ grad_ref, det


def element_mass(elem_coords: np.ndarray, mat: MaterialParams, rule: QuadratureRule) -> np.ndarray:
    """Consistent mass sum_j N^T rho*c N detJ * w_j, shape (..., 4, 4) for coords (..., 4, 2)."""
    coords = np.asarray(elem_coords, dtype=np.float64)
    m = np.zeros(coords.shape[:-2] + (4, 4))
    rho_c = mat.rho * mat.c
    for (xi, eta), w in zip(rule.points, rule.weights):
        n = shape_values(xi, eta)
        det = jacobian_det(coords, xi, eta)
        _check_singular(det, xi, eta)
        m += np.outer(n, n) * (rho_c * det * w)[..., None, None]
    return m


def element_stiffness(elem_coords: np.ndarray, k_nodal: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Conductivity stiffness sum_j B^T (N.k) B detJ * w_j, shape (..., 4, 4).

    `elem_coords` is (..., 4, 2) and `k_nodal` the matching (..., 4) nodal values.
    """
    coords = np.asarray(elem_coords, dtype=np.float64)
    k_nodal = np.asarray(k_nodal, dtype=np.float64)
    if k_nodal.shape != coords.shape[:-1]:
        raise ValidationError(f"k_nodal must have shape {coords.shape[:-1]}, got {k_nodal.shape}")
    ke = np.zeros(coords.shape[:-2] + (4, 4))
    for (xi, eta), w in zip(rule.points, rule.weights):
        b, det = b_matrix(coords, xi, eta)
        k_gp = k_nodal @ shape_values(xi, eta)
        ke += (np.swapaxes(b, -1, -2) @ b) * (k_gp * det * w)[..., None, None]
    return ke


def assemble(m: Mesh, k: ConductivityField, mat: MaterialParams) -> SystemMatrices:
    """Scatter-add element mass/stiffness into global CSR matrices."""
    if k.values.shape[0] != m.n_nodes:
        raise ValidationError(
            f"conductivity has {k.values.shape[0]} values, mesh has {m.n_nodes} nodes"
        )
    rule = gauss_rule_2x2()
    coords = m.nodes[m.elems]
    mass_data = element_mass(coords, mat, rule).ravel()
    stiff_data = element_stiffness(coords, k.values[m.elems], rule).ravel()
    # entry (e, i, j) of the element matrices lands at (elems[e, i], elems[e, j])
    rows = np.repeat(m.elems, 4, axis=1).ravel()
    cols = np.tile(m.elems, (1, 4)).ravel()
    shape = (m.n_nodes, m.n_nodes)
    mass = sp.coo_array((mass_data, (rows, cols)), shape=shape).tocsr()
    stiff = sp.coo_array((stiff_data, (rows, cols)), shape=shape).tocsr()
    return SystemMatrices(mass, stiff)


def split_blocks(mat: sp.csr_array, dofs: DofMap):
    """(free x free, free x constrained) blocks of a global matrix."""
    rows = mat[dofs.free]
    return rows[:, dofs.free], rows[:, dofs.constrained_nodes]


def reduce_system(sys: SystemMatrices, dofs: DofMap, dt: float, alpha: float) -> ReducedSystem:
    """Eliminate Dirichlet dofs from the one-step update for given dt, alpha."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if alpha not in VALID_ALPHAS:
        raise ValidationError(f"alpha must be one of {VALID_ALPHAS}, got {alpha}")
    m_ff = sys.M[dofs.free][:, dofs.free]
    k_ff, k_fd = split_blocks(sys.K, dofs)
    with np.errstate(over="ignore"):  # a dt that overflows is refused below, by name
        a_ff = m_ff + (alpha * dt) * k_ff
        b_ff = m_ff - ((1.0 - alpha) * dt) * k_ff
        rhs_const = -dt * (k_fd @ dofs.constrained_values)
    for name, values in (("A_ff", a_ff.data), ("B_ff", b_ff.data), ("rhs_const", rhs_const)):
        if not np.isfinite(values).all():
            raise NumericalError(f"dt {dt!r} makes {name} of the reduced system non-finite")
    return ReducedSystem(a_ff, b_ff, rhs_const, float(dt), float(alpha))


def load_conductivity(path, n_nodes: int | None = None) -> ConductivityField:
    """Read the `node_id,k` CSV; rows must cover ids 0..n-1 exactly once.

    A malformed row or a non-finite or non-positive k is a ValidationError
    naming the source and line.
    """
    source, values, lines = read_nodal_csv(path, ["node_id", "k"], n_nodes)
    k = values[:, 0]
    bad = ~(np.isfinite(k) & (k > 0))
    if bad.any():
        raise ValidationError(f"{source} line {lines[bad].min()}: k must be finite and positive")
    return ConductivityField(k)
