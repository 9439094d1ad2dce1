"""sovlab - exact numerical checks for SoV bases of gl(3)/gl(2) spin chains.

The library builds fused transfer matrices of the rational gl(3) (and gl(2))
inhomogeneous chain with a twist, constructs left/right separation-of-variables
bases from them, and verifies the algebraic identities these objects satisfy
(fusion hierarchy, coupling-matrix sparsity, Vandermonde measures, determinant
scalar products, conserved-charge orthogonalization) at desk scale.
"""

__version__ = "0.1.0"

from .errors import (
    SovLabError,
    SizeCapError,
    NonGeneric,
    EigFailure,
    DegenerateReference,
    SingularBasis,
    SingularGram,
    DetKZero,
    SpectrumCollision,
    SpectrumNotSimple,
    AmbiguousPattern,
    IndexOrder,
    ConfigError,
)
from .gl3_model import ModelParams, TwistData
from .sov_bases import SovBasisPair
