"""Exception types shared across the package.

Dedicated classes (rather than bare ValueError) so callers can
distinguish input mistakes from genuine mathematical obstructions,
e.g. an operator that admits no metric adjoint.
"""


class OpRadiusError(Exception):
    """Base class for all package errors."""


class NonSquare(OpRadiusError):
    """Raised when a square matrix is required."""


class NotHermitian(OpRadiusError):
    """Raised when the Hermitian symmetry check fails."""


class NotPSD(OpRadiusError):
    """Raised when a matrix has an eigenvalue below the negativity cutoff."""


class NonDiagonalizable(OpRadiusError):
    """Raised when an eigenvector basis is too ill-conditioned to invert."""


class ComplexSpectrum(OpRadiusError):
    """Raised when a real spectrum is required but eigenvalues are complex."""


class DimensionMismatch(OpRadiusError):
    """Raised when operand shapes do not match the space dimension."""


class NotInBA(OpRadiusError):
    """The operator admits no metric adjoint (fails the nullspace
    invariance test); the requested quantity is undefined."""


class UnboundedForm(OpRadiusError):
    """The quadratic-form supremum is infinite because the operator maps
    the metric nullspace outside itself."""


class BadRank(OpRadiusError):
    """Requested rank outside 1..dim."""


class Inapplicable(OpRadiusError):
    """Catalog entry predicate not satisfied by the supplied operands."""


class ConfigError(OpRadiusError):
    """Invalid fuzz campaign configuration."""


class CorruptRecord(OpRadiusError):
    """Violation record failed its fingerprint or schema check."""


class DegenerateSpaceWarning(UserWarning):
    """Emitted when a functional is evaluated on a rank-zero metric."""
