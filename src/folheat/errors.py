"""Exception taxonomy shared across the package, and the rule every number
read from text follows; no numpy, so the CLI checks --threads before numpy
loads. The CLI maps errors onto exit codes: ValidationError -> 1,
NumericalError -> 2, OSError -> 3.
"""


def number(text: str, kind=float):
    """kind(text) for kind int or float, except that a `_` digit separator,
    which both accept ("1_0" reads as 10), is a ValueError. With kind str
    the text, which may hold many numbers, is only checked, in one scan."""
    if "_" in text:
        raise ValueError(f"{text!r} holds a '_' digit separator")
    return kind(text)


class FolheatError(Exception):
    """Base class for all package errors."""


class ValidationError(FolheatError):
    """Bad inputs: malformed meshes, mismatched sizes, invalid options."""


class MeshFormatError(ValidationError):
    """Mesh file could not be parsed; message carries the line number."""


class FingerprintError(ValidationError):
    """A model or sample set was built against a different mesh/dof layout."""


class NumericalError(FolheatError):
    """Numerical failure: solver non-convergence, singular system, diverged loss."""


class ConvergenceError(NumericalError):
    """Iterative solver exhausted its iteration budget."""
