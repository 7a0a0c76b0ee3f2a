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

__all__ = ["ConvergenceError", "FingerprintError", "FolheatError", "MeshFormatError",
           "NumericalError", "ValidationError"]
