"""folheat: a finite-element operator-learning surrogate for transient heat conduction.

The package trains small MLP time-steppers on the implicit-Euler FE residual
(no labeled data) and validates them against its own FE solver.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    FingerprintError,
    FolheatError,
    MeshFormatError,
    NumericalError,
    ValidationError,
)

_MESH_NAMES = ("DirichletSpec", "DofMap", "Mesh", "build_dof_map", "build_structured_grid",
               "demo_irregular_mesh", "load_mesh", "serialize_mesh", "validate_mesh")


def __getattr__(name):
    """The mesh names on first use: importing the package must not load numpy
    before the CLI's --threads has set the BLAS thread budget."""
    if name in _MESH_NAMES:
        from . import mesh

        return getattr(mesh, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["ConvergenceError", "FingerprintError", "FolheatError", "MeshFormatError",
           "NumericalError", "ValidationError", *_MESH_NAMES]
