"""Exception types shared across the library."""


class SovLabError(Exception):
    """Base class for all sovlab errors."""


class SizeCapError(SovLabError):
    """A dense object would exceed the configured dimension cap."""


class EigFailure(SovLabError):
    """Eigendecomposition did not converge, or its eigenvectors are numerically dependent."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateReference(SovLabError):
    """Reference state components violate the non-vanishing conditions."""


class SingularBasis(SovLabError):
    """A family of states that should be a basis is numerically rank deficient."""


class SingularGram(SovLabError):
    """The coupling matrix is numerically singular."""


class DetKZero(SovLabError):
    """A coupling or dual-expansion coefficient, or a det-K weighted eigenstate
    representation, was requested with a numerically singular twist."""


class DegenerateFamily(SovLabError):
    """A one-parameter twist family hit an eigenvalue collision."""


class SpectrumCollision(SovLabError):
    """Zeroing a twist eigenvalue would create a repeated eigenvalue."""


class SpectrumNotSimple(SovLabError):
    """An operator that must have simple spectrum has (numerically) repeated eigenvalues."""


class AmbiguousPattern(SovLabError):
    """An eigenvalue magnitude falls inside the zero/nonzero decision band."""


class PatternMissing(SovLabError):
    """A determinant formula was requested before the zero pattern was computed."""


class IndexOrder(SovLabError):
    """Site indices must be strictly ascending."""


class ConfigError(SovLabError):
    """A run configuration is malformed."""


class TaskFailure(SovLabError):
    """A verification task exceeded its tolerance."""
