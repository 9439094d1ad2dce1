"""Rational gl(2) chain: the rank-one yardstick with orthogonal SoV bases.

Same tensor conventions and chain handle (``gl3_model.TransferCache``) as the
gl(3) model.  The left basis applies T(xi_a)/a(xi_a) to a free tensor
co-vector; the right basis applies T(xi_a - eta)/a(xi_a) to the tensor vector
dual to the all-ones label, and the two families are orthogonal with the
inverse coupling V(xi) * V(xi - h*eta) without any twist dependence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReference, DetKZero, NonGeneric
from .gl3_model import InterpolationWeights, default_probe_point, transfer, xi_separation
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde, worst
from .sov_bases import (
    basis_tree,
    label_digits,
    label_products,
    label_vandermonde,
    tensor_product_state,
)


def check_twist(k):
    """Reject a 2x2 twist that is a multiple of the identity."""
    off = max(abs(k[0, 1]), abs(k[1, 0]), abs(k[0, 0] - k[1, 1]))
    if off <= 1e-12 * max(np.abs(k).max(), 1e-300):
        raise ValueError("twist must not be a multiple of the identity")


@dataclass(frozen=True)
class Gl2Params:
    """Chain data: sites, shift, inhomogeneities, 2x2 twist, reference pair."""

    sites: int
    eta: complex
    xi: tuple
    k_matrix: np.ndarray
    ref: tuple

    def __post_init__(self):
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "xi", tuple(complex(x) for x in self.xi))
        object.__setattr__(self, "k_matrix", np.asarray(self.k_matrix, dtype=complex))
        object.__setattr__(self, "ref", tuple(complex(c) for c in self.ref))
        check_twist(self.k_matrix)
        if abs(self.pairing_form()) <= 1e-12 * max(np.abs(self.k_matrix).max(), 1e-300):
            raise DegenerateReference("reference pair gives a vanishing pairing form")
        if xi_separation(self.xi, self.eta) < 1e-12:
            raise NonGeneric("inhomogeneities violate the genericity condition")

    @property
    def dim(self):
        return 2**self.sites

    def pairing_form(self):
        """b x^2 + (d - a) x y - c y^2 for K = [[a, b], [c, d]]."""
        x, y = self.ref
        k = self.k_matrix
        return complex(k[0, 1] * x * x + (k[1, 1] - k[0, 0]) * x * y - k[1, 0] * y * y)


def gl2_transfer(params, lam):
    """Dense transfer matrix tr_a K_a R_{a,N}(lam - xi_N) ... R_{a,1}(lam - xi_1)."""
    return transfer(params, 1, lam)


def reference_states(params):
    """The tensor references: bare co-vector, all-ones vector, all-zeros vector.

    The vector normalizations carry the chain data (the pair-interaction
    scalars eta^N prod (eta^2 - (xi_i - xi_j)^2) and the Vandermonde pair for
    the all-ones label; the squared Vandermonde for the all-zeros one).
    """
    x, y = params.ref
    k = params.k_matrix
    n = params.sites
    n_k = params.pairing_form()
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


def gl2_bases(cache):
    """Left rows <h| and right columns |h> in flat binary order.

    Built down ``sov_bases.basis_tree``: digit 1 applies T(xi_a)/a(xi_a) to
    the left reference, digit 0 applies T(xi_a - eta)/a(xi_a) to the right.
    """
    params = cache.params
    row0, ones_col, zeros_col = reference_states(params)
    a_xi = InterpolationWeights(params).a
    left_steps = [([], [cache.t1(x) / a_xi(x)]) for x in params.xi]
    right_steps = [([cache.t1(x - params.eta) / a_xi(x)], []) for x in params.xi]
    left = basis_tree(row0, left_steps, lambda row, m: row @ m)
    right = basis_tree(ones_col, right_steps, lambda col, m: m @ col)
    return left, np.ascontiguousarray(right.T), zeros_col


def gl2_pair(cache):
    """``gl2_bases`` of the chain, built once and kept read-only in ``cache.pairs``
    under the reference pair, as ``sov_bases.dressed_pair`` keeps gl(3) pairs."""
    key = cache.params.ref
    if key not in cache.pairs:
        cache.pairs[key] = gl2_bases(cache)
        for arr in cache.pairs[key]:
            arr.setflags(write=False)
    return cache.pairs[key]


def shifted_vandermonde(params):
    """V(xi - h*eta) for every label h in flat binary order."""
    return label_vandermonde(np.asarray(params.xi) - label_digits(params.sites, 2) * params.eta)


def coupling_values(params):
    """1 / (V(xi) V(xi - h*eta)), the orthogonal coupling of every label h,
    in flat binary order."""
    return 1.0 / (vandermonde(params.xi) * shifted_vandermonde(params))


def coupling_residuals(cache):
    """Coupling matrix G = left @ right of the SoV bases and its deviation
    from the orthogonal prediction.

    Returns ``(G, cells, diagonal)``: the largest deviation over every cell
    relative to max|G|, and the largest over the diagonal relative to each
    predicted coupling.
    """
    left, right, _ = gl2_pair(cache)
    gram = left @ right
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


def gl2_eigen_reps(cache):
    """Reconstruct every eigenstate from its eigenvalue data in the SoV bases.

    The right (left) eigenvectors are rebuilt from t(xi_a) (t(xi_a - eta))
    through the label sums with Vandermonde weights, one GEMM per side, and
    compared against the directly diagonalized vectors; the det-K weighted
    right-label representation and the nonvanishing overlap with the all-zeros
    reference are checked as well.  A numerically singular twist raises
    :class:`DetKZero`: the representation divides by det K, and the overlap
    normalization by vanishing t(xi_a - eta).
    """
    params = cache.params
    detk = np.linalg.det(params.k_matrix)
    if abs(detk) <= 1e-12 * max(np.abs(params.k_matrix).max(), 1e-300) ** 2:
        raise DetKZero("det K is numerically zero; the representations need it invertible")
    left, right, zeros_col = gl2_pair(cache)
    dec = eig_general(cache.t1(default_probe_point(params)), gap_rtol=1e-8)

    row0, ones_col, _ = reference_states(params)
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
    cols = basis_tree(zeros_col, steps, lambda col, m: m @ col).T
    return {
        "reconstruction_residual": resid,
        "detk_rep_residual": rel_residual(cols - right, right, axis=0),
        "min_overlap": float(np.abs(overlap).min()),
        "states": [{"eigenvalue": complex(val)} for val in dec.values],
    }


def identity_decomposition_residual(cache):
    """Residual of I = V(xi) sum_h V(xi - h*eta) |h><h|."""
    params = cache.params
    left, right, _ = gl2_pair(cache)
    acc = vandermonde(params.xi) * ((right * shifted_vandermonde(params)) @ left)
    eye = np.eye(params.dim)
    return rel_residual(acc - eye, eye)
