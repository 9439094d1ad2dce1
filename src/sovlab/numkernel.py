"""Dense complex linear algebra and combinatorial primitives.

All matrices are plain ``numpy.ndarray`` of ``complex128``.  Pairings between
co-vectors (rows) and vectors (columns) are bilinear throughout the library:
``row @ col`` with no complex conjugation, matching the algebraic setting.
Every exported operation is a pure function of immutable inputs; results are
freely shareable across threads.  Every residual a report carries is
:func:`rel_residual` in one of its three modes: whole, per row or column
member, or per entry; figures are folded into one by :func:`worst`.  One
is not: ``ttcharges.probe_eigen_residual`` is :func:`eig_general`'s
``residual_norm``, a 2-norm backward error relative to the Frobenius norm of
the matrix (the README's Conventions define it).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigFailure, SizeCapError, SpectrumNotSimple

#: unit-norm rank ratio at or below which a basis family counts as singular
RANK_RTOL = 1e-9

#: largest dimension stored or diagonalized densely (3**8)
DENSE_DIM_CAP = 6561

#: eigenvector matrices conditioned worse than this count as singular
EIGVEC_COND_MAX = 1e13

#: real parts of eigenvalues closer than this, relative to the largest
#: |eigenvalue|, are ordered as tied (:func:`canonical_eig_order`); far below
#: every spectral gap tolerance the library sets (1e-6 and 1e-8)
TIE_RTOL = 1e-10


def as_matrix(a):
    """Coerce to a 2-d complex array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def require_dense(dim):
    """Raise :class:`SizeCapError` if dimension ``dim`` exceeds :data:`DENSE_DIM_CAP`."""
    if dim > DENSE_DIM_CAP:
        raise SizeCapError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")


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
    """Indices sorting eigenvalues by real part, then by imaginary part.

    Real parts are compared in clusters: neighbours in real order that differ
    by at most :data:`TIE_RTOL` times the largest |eigenvalue| share one, and
    a cluster is ordered by imaginary part.  So eigenvalues whose real parts
    agree in exact arithmetic keep their order when rounding moves them.
    """
    values = np.asarray(values)
    by_real = np.argsort(values.real, kind="stable")
    width = TIE_RTOL * np.abs(values).max(initial=0.0)
    cluster = np.empty(len(values), dtype=int)
    cluster[by_real] = np.concatenate(([0], np.cumsum(np.diff(values.real[by_real]) > width)))
    return np.lexsort((values.imag, cluster))


@dataclass(frozen=True)
class EigenDecomposition:
    """Right/left eigen-pairs of a general complex matrix, read-only.

    ``right[:, i]`` is the unit-norm right eigenvector of ``values[i]``;
    ``left[i, :]`` the matching left row vector, normalized so that
    ``left @ right = I`` in the bilinear pairing.  ``residual_norm`` is the
    larger of the right residual ``max_i |A r_i - lam_i r_i|`` and the left
    residual ``max_i |l_i A - lam_i l_i| / |l_i|``, each relative to ``|A|``;
    ``eigvec_cond`` is the 2-norm condition number of ``right``, and
    ``min_rel_gap`` the smallest eigenvalue gap relative to the largest
    |eigenvalue| (infinite for one eigenvalue).
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    residual_norm: float
    eigvec_cond: float
    min_rel_gap: float


def kron_power_product(mat, legs, left=None, right=None):
    """``left^(x legs) @ mat @ right^(x legs)``, either factor optional,
    without the Kronecker powers: one GEMM with ``op (x) op`` per two tensor
    legs of ``mat``'s rows (columns), each step rotating the legs it has done
    to the far end, so that after all ``legs`` the order is back.  At most two
    matrices of ``mat``'s size are held besides ``mat``."""
    rows, cols = mat.shape
    t = mat
    for op, on_right in ((left, False), (right, True)):
        if op is None:
            continue
        d = len(op)
        for k in [2] * (legs // 2) + [1] * (legs % 2):
            opk = np.kron(op, op) if k == 2 else op
            # one statement per step, so that each copy frees its source
            if on_right:
                t = t.reshape(-1, d**k)
                t = (t @ opk).reshape(rows, -1, d**k).transpose(0, 2, 1)
            else:
                t = t.reshape(d**k, -1)
                t = (opk @ t).reshape(d**k, -1, cols).transpose(1, 0, 2)
    return t.reshape(rows, cols)


def _lapack_eig(a):
    try:
        return np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigensolver did not converge: {exc}") from exc


def eig_general(a, gap_rtol=None, sectors=None):
    """Full eigendecomposition with bilinearly paired left/right families.

    One LAPACK call gives the right eigenvectors; after sorting the
    eigenvalues by :func:`canonical_eig_order` the left family is their
    inverse, bi-orthonormal by construction, so
    ``left[i] @ a = values[i] * left[i]``.  An eigenvector matrix with
    condition number above :data:`EIGVEC_COND_MAX` (a defective or
    numerically defective matrix) raises :class:`EigFailure`.  With
    ``gap_rtol`` a spectrum whose smallest eigenvalue gap is at most
    ``gap_rtol * max|lambda|`` raises :class:`SpectrumNotSimple`.

    ``sectors=(w, labels)`` declares a symmetry: in the basis ``w^(x)N`` of
    the d^N space (``w`` is d x d), ``a`` is block diagonal, with one block
    per value of ``labels``, one integer per basis state.  Then
    ``a' = (w^-1)^(x)N a w^(x)N`` is diagonalized one block at a time (one
    LAPACK call each; the entries between blocks are dropped), ``right`` is
    ``w^(x)N blockdiag(V)`` with unit-norm columns and ``left`` is
    ``blockdiag(V^-1) (w^-1)^(x)N`` scaled to ``left @ right = I``.  The
    order, gap test, conditioning and both residuals are those of the whole
    matrix, against ``a`` itself, so a wrong symmetry shows up in
    ``residual_norm``.  A single label is the plain path.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("eig_general expects a square matrix")
    require_dense(n)
    if sectors is not None:
        w, labels = as_matrix(sectors[0]), np.asarray(sectors[1])
        if labels.shape != (n,):
            raise ValueError(f"sectors need one label per basis state, got {labels.shape}")
        # the states of each label, ascending (np.unique would import numpy.ma)
        by_label = np.argsort(labels, kind="stable")
        blocks = np.split(by_label, np.flatnonzero(np.diff(labels[by_label])) + 1)
        if len(blocks) < 2:
            sectors = None
    if sectors is None:
        values, right = _lapack_eig(a)
    else:
        w_inv = np.linalg.inv(w)
        legs = round(math.log(n, len(w)))
        a_w = kron_power_product(a, legs, left=w_inv, right=w)
        values = np.empty(n, dtype=complex)
        vecs = []
        for ix in blocks:
            values[ix], v = _lapack_eig(a_w[ix[:, None], ix])
            vecs.append(v)
        del a_w
        right = np.zeros((n, n), dtype=complex)
        for ix, v in zip(blocks, vecs):
            right[ix[:, None], ix] = v
        right = kron_power_product(right, legs, left=w)
        norms = np.linalg.norm(right, axis=0)
        right /= norms
    order = canonical_eig_order(values)
    values, right = values[order], right[:, order]

    diffs = np.abs(values[:, None] - values[None, :])
    diffs[np.diag_indices_from(diffs)] = np.inf
    gap = float(diffs.min()) / max(float(np.abs(values).max()), 1e-300)
    del diffs
    if gap_rtol is not None and gap <= gap_rtol:
        raise SpectrumNotSimple(f"relative eigenvalue gap {gap:.2e} below {gap_rtol:.0e}")
    cond = float(np.linalg.cond(right))
    if not cond <= EIGVEC_COND_MAX:
        raise EigFailure(
            f"eigenvector matrix is numerically singular (condition {cond:.2e}; "
            "matrix may be defective)"
        )
    if sectors is None:
        left = np.linalg.inv(right)
    else:
        left = np.zeros((n, n), dtype=complex)
        for ix, v in zip(blocks, vecs):
            left[ix[:, None], ix] = np.linalg.inv(v)
        left = kron_power_product(left, legs, right=w_inv)[order]
        left *= norms[order, None]

    norm_a = max(np.linalg.norm(a), 1e-300)
    resid_right = np.linalg.norm(a @ right - right * values, axis=0).max()
    resid_left = (np.linalg.norm(left @ a - values[:, None] * left, axis=1)
                  / np.linalg.norm(left, axis=1)).max()
    residual = float(worst((resid_right, resid_left)) / norm_a)
    for arr in (values, right, left):
        arr.setflags(write=False)
    return EigenDecomposition(values, right, left, residual, cond, gap)


def rayleigh_quotients(left, matrix, right):
    """Bilinear Rayleigh quotients ``(l_i M r_i) / (l_i r_i)`` of the rows of
    ``left`` and the columns of ``right``, with one GEMM for the whole family."""
    return (np.einsum("ij,ji->i", left @ matrix, right)
            / np.einsum("ij,ji->i", left, right))


def rel_residual(diff, ref, axis=None):
    """max|diff| relative to max|ref|: the library's relative-residual convention.

    It has three modes: whole (``axis=None``); per member, the worst row's
    (``axis=1``) or column's (``axis=0``) ratio of ``diff`` to the same
    member of ``ref``; and per entry (``axis=()``, numpy's empty reduction),
    the worst entry's ratio.  A masked figure passes ``np.where(mask, x, 0)``
    as ``diff``, a residual against the identity ``x - eye`` with ``ref=eye``.
    Scalars take the builtin abs, whose hypot can differ in the last bit from
    numpy's vectorized complex abs.
    """
    def mag(x):
        return np.abs(x).max(axis=axis) if np.ndim(x) else abs(x)
    return float((mag(diff) / np.maximum(mag(ref), 1e-300)).max())


def worst(figures):
    """The largest of some report figures, 0.0 when there are none.  A NaN
    figure is the largest, so it fails any gate the result is compared with."""
    figures = list(figures)
    return float(np.max(figures)) if figures else 0.0


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
