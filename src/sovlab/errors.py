"""Exception types shared across the library."""


class SovLabError(Exception):
    """Base class for all sovlab errors."""


class NonGeneric(SovLabError, ValueError):
    """eta = 0, or inhomogeneities that coincide or differ by +-eta."""


class DoubleShift(NonGeneric):
    """Inhomogeneities with xi_a - xi_b = 2 eta, where d(xi_a - 2 eta) vanishes."""


class SizeCapError(SovLabError):
    """A dense object would exceed the configured dimension cap."""


class EigFailure(SovLabError):
    """Eigendecomposition did not converge, or its eigenvectors are numerically dependent."""


class DegenerateReference(SovLabError):
    """Reference state components violate the non-vanishing conditions."""


class SingularBasis(SovLabError):
    """A family of states that should be a basis is numerically rank deficient."""


class SingularGram(SovLabError):
    """The coupling matrix is numerically singular."""


class DetKZero(SovLabError):
    """A coupling or dual-expansion coefficient, or a det-K weighted eigenstate
    representation, was requested with a numerically singular twist."""


class SpectrumCollision(SovLabError):
    """Zeroing a twist eigenvalue would create a repeated eigenvalue."""


class SpectrumNotSimple(SovLabError):
    """An operator that must have simple spectrum has (numerically) repeated eigenvalues."""


class AmbiguousPattern(SovLabError):
    """An eigenvalue magnitude falls inside the zero/nonzero decision band."""


class IndexOrder(SovLabError):
    """Site indices must be strictly ascending."""


class ConfigError(SovLabError):
    """A run configuration is malformed."""
