"""Exception hierarchy for gmdecomp.

All library errors derive from :class:`GmdError` so callers can catch one
base class. Validation problems (bad shapes, non-PSD constraints, bad data)
and numerical failures are kept distinct because the CLI maps them to
different exit codes.
"""


class GmdError(Exception):
    """Base class for all gmdecomp errors."""


class ValidationError(GmdError):
    """Input data or constraints failed validation."""


class InvalidArgumentError(GmdError, ValueError):
    """An option is out of its domain (unknown PCA route, negative omega)."""


class NumericalError(GmdError):
    """A numerical routine failed (non-convergence, bad spectrum)."""


class NotPSDError(ValidationError):
    pass


class NotSymmetricError(NotPSDError):
    """Not symmetric, hence also not a symmetric PSD metric."""


class DimensionMismatchError(ValidationError):
    pass


class NonSquareError(DimensionMismatchError):
    """A matrix that must be square is not: a shape mismatch with itself."""


class EmptyMatrixError(ValidationError):
    pass


class NonFiniteError(ValidationError):
    pass


class ZeroVarianceColumnError(ValidationError):
    pass


class NotADistanceMatrixError(ValidationError):
    pass


class NonPositiveWeightError(ValidationError):
    pass


class EmptyMarginError(ValidationError):
    pass


class NegativeCountError(ValidationError):
    pass


class SingleLevelVariableError(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class RaggedRowsError(ParseError):
    pass


class NoConvergenceError(NumericalError):
    pass


class ComplexOrNegativeEigenvalueError(NumericalError):
    """Raised when an active tolerance finds eigen/singular values that are
    not real and positive (e.g. decomposing a non-PSD matrix without
    disabling the tolerance)."""
