"""Dense complex linear algebra and combinatorial primitives.

All matrices are plain ``numpy.ndarray`` of ``complex128``.  Pairings between
co-vectors (rows) and vectors (columns) are bilinear throughout the library:
``row @ col`` with no complex conjugation, matching the algebraic setting.
Every exported operation is a pure function of immutable inputs; results are
freely shareable across threads.
"""

import itertools
import math

import numpy as np

from .errors import EigFailure, SizeCapError, SpectrumNotSimple

#: default relative threshold for rank / zero decisions
RANK_RTOL = 1e-9

#: largest dimension stored densely by default (3**8)
DENSE_DIM_CAP = 6561

#: eigenvector matrices conditioned worse than this count as singular
EIGVEC_COND_MAX = 1e13


def as_matrix(a):
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def kron(a, b, cap=DENSE_DIM_CAP):
    """Kronecker product with the row-major convention
    ``kron(a, b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > cap or a.shape[1] * b.shape[1] > cap:
        raise SizeCapError(
            f"kron result {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds cap {cap}"
        )
    return np.kron(a, b)


def vandermonde(xs):
    """prod_{i<j} (x_j - x_i); empty and singleton sequences give 1."""
    xs = list(xs)
    out = 1.0 + 0.0j
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return complex(out)


def _permutation_operator(d, m, perm):
    """Operator on (C^d)^{x m} sending v_1 x...x v_m to v_{perm(1)} x...x v_{perm(m)}."""
    dim = d**m
    op = np.zeros((dim, dim), dtype=complex)
    for src_digits in itertools.product(range(d), repeat=m):
        dst_digits = tuple(src_digits[perm[k]] for k in range(m))
        src = 0
        for k in src_digits:
            src = src * d + k
        dst = 0
        for k in dst_digits:
            dst = dst * d + k
        op[dst, src] = 1.0
    return op


def antisymmetrizer(d, m):
    """Antisymmetric projector (1/m!) sum_pi sign(pi) P_pi on (C^d)^{x m}.

    Idempotent, self-adjoint, with trace binom(d, m).  Only the orders
    appearing in the fusion hierarchy (m = 1..3, d = 2 or 3) are supported.
    """
    if not 1 <= m <= 3:
        raise ValueError("antisymmetrizer supports 1 <= m <= 3")
    if d not in (2, 3):
        raise ValueError("antisymmetrizer supports d in {2, 3}")
    acc = np.zeros((d**m, d**m), dtype=complex)
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        acc += sign * _permutation_operator(d, m, perm)
    return acc / math.factorial(m)


def canonical_eig_order(values):
    """Indices sorting eigenvalues by (Re, Im) ascending."""
    values = np.asarray(values)
    return np.lexsort((values.imag, values.real))


class EigenDecomposition:
    """Right/left eigen-pairs of a general complex matrix.

    ``right[:, i]`` is the unit-norm right eigenvector of ``values[i]``;
    ``left[i, :]`` the matching left row vector, normalized so that
    ``left @ right = I`` in the bilinear pairing.  ``residual_norm`` is the
    larger of the right residual ``max_i |A r_i - lam_i r_i|`` and the left
    residual ``max_i |l_i A - lam_i l_i| / |l_i|``, each relative to ``|A|``;
    ``eigvec_cond`` is the 2-norm condition number of ``right``.
    """

    def __init__(self, values, right, left, residual_norm, eigvec_cond=None):
        self.values = values
        self.right = right
        self.left = left
        self.residual_norm = residual_norm
        self.eigvec_cond = eigvec_cond

    def reconstruct(self):
        """sum_i lam_i |v_i><u_i| as a dense matrix."""
        return (self.right * self.values) @ self.left

    def min_gap(self):
        diffs = np.abs(self.values[:, None] - self.values[None, :])
        diffs[np.diag_indices_from(diffs)] = np.inf
        return float(diffs.min()) if len(self.values) > 1 else np.inf

    def min_rel_gap(self):
        """Smallest eigenvalue gap relative to the largest |eigenvalue|."""
        return self.min_gap() / max(float(np.abs(self.values).max()), 1e-300)


def eig_general(a, cap=DENSE_DIM_CAP, gap_rtol=None):
    """Full eigendecomposition with bilinearly paired left/right families.

    One LAPACK call gives the right eigenvectors; after sorting the
    eigenvalues by (Re, Im) the left family is their inverse, bi-orthonormal
    by construction, so ``left[i] @ a = values[i] * left[i]``.  An eigenvector
    matrix with condition number above :data:`EIGVEC_COND_MAX` (a defective
    or numerically defective matrix) raises :class:`EigFailure`.  With
    ``gap_rtol`` a spectrum whose smallest eigenvalue gap is at most
    ``gap_rtol * max|lambda|`` raises :class:`SpectrumNotSimple`.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig_general expects a square matrix")
    if n > cap:
        raise SizeCapError(f"dimension {n} exceeds cap {cap}")
    try:
        values, right = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolver did not converge: {exc}") from exc
    order = canonical_eig_order(values)
    values, right = values[order], right[:, order]

    dec = EigenDecomposition(values, right, None, None)
    if gap_rtol is not None and dec.min_rel_gap() <= gap_rtol:
        raise SpectrumNotSimple(
            f"relative eigenvalue gap {dec.min_rel_gap():.2e} below {gap_rtol:.0e}"
        )
    dec.eigvec_cond = float(np.linalg.cond(right))
    if not dec.eigvec_cond <= EIGVEC_COND_MAX:
        raise EigFailure(
            f"eigenvector matrix is numerically singular (condition {dec.eigvec_cond:.2e}; "
            "matrix may be defective)"
        )
    dec.left = np.linalg.inv(right)

    norm_a = max(np.linalg.norm(a), 1e-300)
    resid_right = np.linalg.norm(a @ right - right * values, axis=0).max()
    resid_left = (np.linalg.norm(dec.left @ a - values[:, None] * dec.left, axis=1)
                  / np.linalg.norm(dec.left, axis=1)).max()
    dec.residual_norm = float(max(resid_right, resid_left) / norm_a)
    return dec


def rayleigh_quotients(left, matrix, right):
    """Bilinear Rayleigh quotients ``(l_i M r_i) / (l_i r_i)`` of the rows of
    ``left`` and the columns of ``right``, with one GEMM for the whole family."""
    return (np.einsum("ij,ji->i", left @ matrix, right)
            / np.einsum("ij,ji->i", left, right))


def rel_residual(diff, ref, axis=None):
    """max|diff| relative to max|ref|: the library's relative-residual convention.

    With ``axis`` it is the worst member's ratio, each row (``axis=1``) or
    column (``axis=0``) of ``diff`` against the same member of ``ref``.
    Scalars take the builtin abs, whose hypot can differ in the last bit from
    numpy's vectorized complex abs.
    """
    def mag(x):
        return np.abs(x).max(axis=axis) if np.ndim(x) else abs(x)
    return float((mag(diff) / np.maximum(mag(ref), 1e-300)).max())


def rank_ratio(matrix):
    """sigma_min / sigma_max of a matrix (0.0 for the zero matrix)."""
    s = np.linalg.svd(as_matrix(matrix), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def adjugate3(m):
    """Adjugate of a 3x3 matrix via cofactors (valid for singular input)."""
    m = as_matrix(m)
    if m.shape != (3, 3):
        raise ValueError("adjugate3 expects a 3x3 matrix")
    cof = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            minor = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
    return cof.T
