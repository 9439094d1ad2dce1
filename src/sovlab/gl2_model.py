"""Rational gl(2) chain: the rank-one yardstick with orthogonal SoV bases.

Same chain type (``gl3_model.ModelParams``, here with a 2x2 twist), tensor
conventions and chain handle (``gl3_model.TransferCache``) as the gl(3) model.
The reference pair (x, y) is an argument of the basis builder, as gl(3)'s
(x, y, z) is of ``sov_bases.dressed_pair``; the bases are a value that the
caller keeps (the workspace's memo) and passes to the functions that read
them.  The left basis applies T(xi_a)/a(xi_a) to a free tensor co-vector;
the right basis applies T(xi_a - eta)/a(xi_a) to the tensor vector dual to
the all-ones label, and the two families are orthogonal with the inverse
coupling V(xi) * V(xi - h*eta) without any twist dependence.
"""

import numpy as np

from .errors import DegenerateReference, DetKZero
from .gl3_model import InterpolationWeights, default_probe_point, transfer
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde, worst
from .sov_bases import (
    basis_tree,
    label_digits,
    label_products,
    label_vandermonde,
    tensor_product_state,
)


def pairing_form(k, ref):
    """b x^2 + (d - a) x y - c y^2 for K = [[a, b], [c, d]] and ref = (x, y)."""
    x, y = ref
    return complex(k[0, 1] * x * x + (k[1, 1] - k[0, 0]) * x * y - k[1, 0] * y * y)


def gl2_transfer(params, lam):
    """Dense transfer matrix tr_a K_a R_{a,N}(lam - xi_N) ... R_{a,1}(lam - xi_1)."""
    return transfer(params, 1, lam)


def reference_states(cache, ref):
    """The tensor references of the reference pair ``ref`` = (x, y): bare
    co-vector, all-ones vector, all-zeros vector.

    The vector normalizations carry the chain data (the pair-interaction
    scalars eta^N prod (eta^2 - (xi_i - xi_j)^2) and the Vandermonde pair for
    the all-ones label; the squared Vandermonde for the all-zeros one).  A
    pair whose pairing form vanishes raises :class:`DegenerateReference`.
    """
    params = cache.params
    x, y = (complex(c) for c in ref)
    k = params.k_matrix
    n = params.sites
    n_k = pairing_form(k, (x, y))
    if abs(n_k) <= 1e-12 * max(np.abs(k).max(), 1e-300):
        raise DegenerateReference("reference pair gives a vanishing pairing form")
    v0 = vandermonde(params.xi)
    v1 = vandermonde([xx - params.eta for xx in params.xi])
    pair_scalar = 1.0 + 0j
    for i in range(n):
        for j in range(i + 1, n):
            pair_scalar *= params.eta**2 - (params.xi[i] - params.xi[j]) ** 2
    a_xi = InterpolationWeights(params).a
    norm_ones = (
        params.eta**n * pair_scalar * n_k**n * v0 * v1
        / np.prod([a_xi(xx) for xx in params.xi])
    )
    norm_zeros = n_k**n * v0**2
    row = tensor_product_state([[x, y]] * n)
    ones_col = tensor_product_state([[-y, x]] * n) / norm_ones
    zeros_col = (
        tensor_product_state([[k[0, 1] * x + k[1, 1] * y, -(k[0, 0] * x + k[1, 0] * y)]] * n)
        / norm_zeros
    )
    return row, ones_col, zeros_col


def gl2_bases(cache, ref):
    """Left rows <h| and right columns |h> in flat binary order, with the
    all-zeros column, from the reference pair ``ref``, as read-only arrays.

    Built down ``sov_bases.basis_tree``: digit 1 applies T(xi_a)/a(xi_a) to
    the left reference, digit 0 applies T(xi_a - eta)/a(xi_a) to the right.
    """
    params = cache.params
    row0, ones_col, zeros_col = reference_states(cache, ref)
    a_xi = InterpolationWeights(params).a
    left_steps = [([], [cache.t1(x) / a_xi(x)]) for x in params.xi]
    right_steps = [([cache.t1(x - params.eta) / a_xi(x)], []) for x in params.xi]
    bases = (basis_tree(row0, left_steps, "left"), basis_tree(ones_col, right_steps, "right"),
             zeros_col)
    for arr in bases:
        arr.setflags(write=False)
    return bases


def shifted_vandermonde(params):
    """V(xi - h*eta) for every label h in flat binary order."""
    return label_vandermonde(np.asarray(params.xi) - label_digits(params.sites, 2) * params.eta)


def coupling_values(params):
    """1 / (V(xi) V(xi - h*eta)), the orthogonal coupling of every label h,
    in flat binary order."""
    return 1.0 / (vandermonde(params.xi) * shifted_vandermonde(params))


def coupling_residuals(cache, bases):
    """Coupling matrix G = left @ right of the chain's :func:`gl2_bases` and
    its deviation from the orthogonal prediction.

    Returns ``(G, cells, diagonal)``: G read-only, the largest deviation over
    every cell relative to max|G|, and the largest over the diagonal relative
    to each predicted coupling.
    """
    left, right, _ = bases
    gram = left @ right
    gram.setflags(write=False)
    pred = coupling_values(cache.params)
    cells = rel_residual(gram - np.diag(pred), gram)
    diagonal = rel_residual(np.diagonal(gram) - pred, pred, axis=())
    return gram, cells, diagonal


def qdet_scalar(cache, a):
    """Observed fusion scalar T(xi_a) T(xi_a - eta) and its off-identity residual.

    The observed value matches det K * a(xi_a) d(xi_a - eta); centrality is
    confirmed numerically rather than assumed.
    """
    params = cache.params
    prod = cache.t1(params.xi[a]) @ cache.t1(params.xi[a] - params.eta)
    scalar = np.trace(prod) / params.dim
    resid = rel_residual(prod - scalar * np.eye(params.dim), scalar)
    w = InterpolationWeights(params)
    closed = np.linalg.det(params.k_matrix) * w.a(params.xi[a]) * w.d(params.xi[a] - params.eta)
    return complex(scalar), resid, complex(closed)


def gl2_eigen_reps(cache, bases):
    """Reconstruct every eigenstate from its eigenvalue data in the chain's
    :func:`gl2_bases`.

    The right (left) eigenvectors are rebuilt from t(xi_a) (t(xi_a - eta))
    through the label sums with Vandermonde weights, one GEMM per side, and
    compared against the directly diagonalized vectors; the det-K weighted
    right-label representation and the nonvanishing overlap with the all-zeros
    reference are checked as well.  A numerically singular twist raises
    :class:`DetKZero`: the representation divides by det K, and the overlap
    normalization by vanishing t(xi_a - eta).
    """
    params = cache.params
    left, right, zeros_col = bases
    detk = np.linalg.det(params.k_matrix)
    if abs(detk) <= 1e-12 * max(np.abs(params.k_matrix).max(), 1e-300) ** 2:
        raise DetKZero("det K is numerically zero; the representations need it invertible")
    dec = eig_general(cache.t1(default_probe_point(params)), gap_rtol=1e-8)

    row0, ones_col = left[0], right[:, -1]  # no factor acts on the all-zeros row, all-ones column
    v_xi = vandermonde(params.xi)
    w = InterpolationWeights(params)
    a_xi = np.array([w.a(x) for x in params.xi])
    t_at = [cache.t1(x) for x in params.xi]
    t_sh = [cache.t1(x - params.eta) for x in params.xi]
    # column i: the eigenvalues of state i at every xi_a (xi_a - eta) over a(xi_a)
    r_at = np.stack([rayleigh_quotients(dec.left, m, dec.right) for m in t_at]) / a_xi[:, None]
    r_sh = np.stack([rayleigh_quotients(dec.left, m, dec.right) for m in t_sh]) / a_xi[:, None]
    ones = np.ones_like(r_at)
    # label coefficients of every state: prod_a r_at^{h_a} and prod_a r_sh^{1 - h_a}
    weight = shifted_vandermonde(params)[:, None]
    coef_right = label_products(np.stack([ones, r_at], axis=1)) * weight
    coef_left = label_products(np.stack([r_sh, ones], axis=1)) * weight

    v = dec.right / (row0 @ dec.right) / v_xi
    u = (dec.left / (dec.left @ ones_col)[:, None] / v_xi).T
    # the stated normalization puts <t|zeros> at overlap / V(xi)
    overlap = np.prod(r_sh, axis=0)
    target = overlap / v_xi
    resid = worst((rel_residual(right @ coef_right - v, v, axis=0),
                   rel_residual(left.T @ coef_left - u, u, axis=0),
                   rel_residual(zeros_col @ u - target, target, axis=())))

    # right-label det-K representation: |h> from the zeros reference
    steps = [([], [t / (detk * w.d(x - params.eta))]) for t, x in zip(t_at, params.xi)]
    cols = basis_tree(zeros_col, steps, "right")
    return {
        "reconstruction_residual": resid,
        "detk_rep_residual": rel_residual(cols - right, right, axis=0),
        "min_overlap": float(np.abs(overlap).min()),
        "states": [{"eigenvalue": complex(val)} for val in dec.values],
    }


def identity_decomposition_residual(cache, bases):
    """Residual of I = V(xi) sum_h V(xi - h*eta) |h><h| over the chain's
    :func:`gl2_bases`."""
    params = cache.params
    left, right, _ = bases
    acc = vandermonde(params.xi) * ((right * shifted_vandermonde(params)) @ left)
    eye = np.eye(params.dim)
    return rel_residual(acc - eye, eye)
