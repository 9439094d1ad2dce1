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

    ``right[:, i]`` is the right eigenvector of ``values[i]``; ``left[i, :]``
    the matching left row vector, normalized so that ``left @ right = I`` in
    the bilinear pairing.  ``residual_norm`` bounds ``|A v - lam v| / |A|``.
    """

    def __init__(self, values, right, left, residual_norm):
        self.values = values
        self.right = right
        self.left = left
        self.residual_norm = residual_norm

    def reconstruct(self):
        """sum_i lam_i |v_i><u_i| as a dense matrix."""
        return (self.right * self.values) @ self.left

    def min_gap(self):
        diffs = np.abs(self.values[:, None] - self.values[None, :])
        diffs[np.diag_indices_from(diffs)] = np.inf
        return float(diffs.min()) if len(self.values) > 1 else np.inf


def eig_general(a, cap=DENSE_DIM_CAP, pair_gap_rtol=1e-8, gap_rtol=None):
    """Full eigendecomposition with bilinearly paired left/right families.

    Eigenvalues are sorted by (Re, Im).  Left vectors are computed as right
    eigenvectors of ``a.T`` (transpose, not conjugate transpose), so
    ``left[i] @ a = values[i] * left[i]``.  Within clusters of nearly equal
    eigenvalues the left family is re-paired to maximize the bilinear overlaps
    before normalization.  With ``gap_rtol`` a spectrum whose smallest
    eigenvalue gap is at most ``gap_rtol * max|lambda|`` raises
    :class:`SpectrumNotSimple`.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig_general expects a square matrix")
    if n > cap:
        raise SizeCapError(f"dimension {n} exceeds cap {cap}")
    try:
        vals_r, vr = np.linalg.eig(a)
        vals_l, vl = np.linalg.eig(a.T)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolver did not converge: {exc}") from exc

    order_r = canonical_eig_order(vals_r)
    vals_r, vr = vals_r[order_r], vr[:, order_r]
    order_l = canonical_eig_order(vals_l)
    vals_l, vl = vals_l[order_l], vl[:, order_l]

    dec = EigenDecomposition(vals_r, vr, None, None)
    scale = max(np.abs(vals_r).max(), 1e-300)
    if gap_rtol is not None and dec.min_gap() <= gap_rtol * scale:
        raise SpectrumNotSimple(f"eigenvalue gap {dec.min_gap():.2e} below {gap_rtol:.0e} * scale")
    # repair the pairing inside near-degenerate clusters
    taken = np.zeros(n, dtype=bool)
    left_rows = np.empty((n, n), dtype=complex)
    for i in range(n):
        cluster = np.where(~taken & (np.abs(vals_l - vals_r[i]) <= pair_gap_rtol * scale))[0]
        if len(cluster) == 0:
            cluster = np.where(~taken)[0]
        overlaps = np.abs(vr[:, i] @ vl[:, cluster])
        j = cluster[int(np.argmax(overlaps))]
        taken[j] = True
        pairing = vl[:, j] @ vr[:, i]
        if abs(pairing) < 1e-13 * np.abs(vl[:, j]).max() * np.abs(vr[:, i]).max():
            raise EigFailure(
                "left/right eigenvectors could not be bi-orthonormalized "
                "(matrix may be defective)",
                residual=abs(pairing),
            )
        left_rows[i] = vl[:, j] / pairing
    dec.left = left_rows

    resid = np.linalg.norm(a @ vr - vr * vals_r, axis=0).max()
    dec.residual_norm = resid / max(np.linalg.norm(a), 1e-300)
    return dec


def rel_residual(diff, ref):
    """max|diff| relative to max|ref|: the library's relative-residual convention."""
    return float(np.abs(diff).max() / max(np.abs(ref).max(), 1e-300))


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
