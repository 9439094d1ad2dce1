"""Rational gl(2) chain: the rank-one yardstick with orthogonal SoV bases.

Same tensor conventions as the gl(3) model (site 1 fastest).  The left basis
applies T(xi_a)/a(xi_a) to a free tensor co-vector; the right basis applies
T(xi_a - eta)/a(xi_a) to the tensor vector dual to the all-ones label, and
the two families are orthogonal with the inverse coupling
V(xi) * V(xi - h*eta) without any twist dependence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReference, DetKZero
from .gl3_model import InterpolationWeights, default_probe_point, fused_dense, xi_separation
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde
from .sov_bases import basis_tree, label_digits, label_products, tensor_product_state


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
        k = self.k_matrix
        scale = max(np.abs(k).max(), 1e-300)
        off = max(abs(k[0, 1]), abs(k[1, 0]), abs(k[0, 0] - k[1, 1]))
        if off <= 1e-12 * scale:
            raise ValueError("twist must not be a multiple of the identity")
        if abs(self.pairing_form()) <= 1e-12 * scale:
            raise DegenerateReference("reference pair gives a vanishing pairing form")
        if xi_separation(self.xi, self.eta) < 1e-12:
            raise ValueError("inhomogeneities violate the genericity condition")

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
    return fused_dense(params.k_matrix, params.eta, params.xi, 1, lam)


class Gl2TransferCache:
    """Memoized transfer matrices of one gl(2) chain and the SoV bases built
    from them."""

    def __init__(self, params):
        self.params = params
        self._store = {}
        self._bases = None

    def value(self, lam):
        key = complex(lam)
        if key not in self._store:
            self._store[key] = gl2_transfer(self.params, key)
        return self._store[key]

    def bases(self):
        """``gl2_bases`` of this chain, built once; the arrays are read-only."""
        if self._bases is None:
            self._bases = gl2_bases(self.params, self)
            for arr in self._bases:
                arr.flags.writeable = False
        return self._bases


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


def gl2_bases(params, cache=None):
    """Left rows <h| and right columns |h> in flat binary order.

    Built down ``sov_bases.basis_tree``: digit 1 applies T(xi_a)/a(xi_a) to
    the left reference, digit 0 applies T(xi_a - eta)/a(xi_a) to the right.
    """
    cache = cache or Gl2TransferCache(params)
    row0, ones_col, zeros_col = reference_states(params)
    a_xi = InterpolationWeights(params).a
    left_steps = [([], [cache.value(x) / a_xi(x)]) for x in params.xi]
    right_steps = [([cache.value(x - params.eta) / a_xi(x)], []) for x in params.xi]
    left = basis_tree(row0, left_steps, lambda row, m: row @ m)
    right = basis_tree(ones_col, right_steps, lambda col, m: m @ col)
    return left, np.ascontiguousarray(right.T), zeros_col


def coupling_prediction(params, h):
    """1 / (V(xi) V(xi - h*eta)) - the orthogonal coupling of label h."""
    shifted = [params.xi[a] - h[a] * params.eta for a in range(params.sites)]
    return 1.0 / (vandermonde(params.xi) * vandermonde(shifted))


def shifted_vandermonde(params):
    """V(xi - h*eta) for every label h in flat binary order."""
    nodes = np.asarray(params.xi) - label_digits(params.sites, 2) * params.eta
    out = np.ones(params.dim, dtype=complex)
    for i in range(params.sites):
        for j in range(i + 1, params.sites):
            out *= nodes[:, j] - nodes[:, i]
    return out


def coupling_values(params):
    """``coupling_prediction`` of every label in flat binary order."""
    return 1.0 / (vandermonde(params.xi) * shifted_vandermonde(params))


def coupling_residuals(params, cache=None):
    """Coupling matrix G = left @ right of the SoV bases and its deviation
    from the orthogonal prediction.

    Returns ``(G, cells, diagonal)``: the largest deviation over every cell
    relative to max|G|, and the largest over the diagonal relative to each
    predicted coupling.
    """
    left, right, _ = (cache or Gl2TransferCache(params)).bases()
    gram = left @ right
    pred = coupling_values(params)
    cells = rel_residual(gram - np.diag(pred), gram)
    diagonal = float((np.abs(np.diagonal(gram) - pred) / np.abs(pred)).max())
    return gram, cells, diagonal


def qdet_scalar(params, a, cache=None):
    """Observed fusion scalar T(xi_a) T(xi_a - eta) and its off-identity residual.

    The observed value matches det K * a(xi_a) d(xi_a - eta); centrality is
    confirmed numerically rather than assumed.
    """
    cache = cache or Gl2TransferCache(params)
    prod = cache.value(params.xi[a]) @ cache.value(params.xi[a] - params.eta)
    scalar = np.trace(prod) / params.dim
    resid = rel_residual(prod - scalar * np.eye(params.dim), scalar)
    w = InterpolationWeights(params)
    closed = np.linalg.det(params.k_matrix) * w.a(params.xi[a]) * w.d(params.xi[a] - params.eta)
    return complex(scalar), resid, complex(closed)


def gl2_eigen_reps(params, lambda0=None, cache=None, gap_rtol=1e-8):
    """Reconstruct every eigenstate from its eigenvalue data in the SoV bases.

    The right (left) eigenvectors are rebuilt from t(xi_a) (t(xi_a - eta))
    through the label sums with Vandermonde weights, one GEMM per side, and
    compared against the directly diagonalized vectors; the det-K weighted
    right-label representation and the nonvanishing overlap with the all-zeros
    reference are checked as well.  A numerically singular twist raises
    :class:`DetKZero`: the representation divides by det K, and the overlap
    normalization by vanishing t(xi_a - eta).
    """
    detk = np.linalg.det(params.k_matrix)
    if abs(detk) <= 1e-12 * max(np.abs(params.k_matrix).max(), 1e-300) ** 2:
        raise DetKZero("det K is numerically zero; the representations need it invertible")
    cache = cache or Gl2TransferCache(params)
    left, right, zeros_col = cache.bases()
    lam0 = default_probe_point(params) if lambda0 is None else lambda0
    dec = eig_general(cache.value(lam0), gap_rtol=gap_rtol)

    row0, ones_col, _ = reference_states(params)
    v_xi = vandermonde(params.xi)
    w = InterpolationWeights(params)
    a_xi = np.array([w.a(x) for x in params.xi])
    t_at = [cache.value(x) for x in params.xi]
    t_sh = [cache.value(x - params.eta) for x in params.xi]
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
    resid = max(rel_residual(right @ coef_right - v, v, axis=0),
                rel_residual(left.T @ coef_left - u, u, axis=0))
    # the stated normalization puts <t|zeros> at overlap / V(xi)
    overlap = np.prod(r_sh, axis=0)
    target = overlap / v_xi
    zres = np.abs(zeros_col @ u - target) / np.maximum(np.abs(target), 1e-300)

    # right-label det-K representation: |h> from the zeros reference
    steps = [([], [t / (detk * w.d(x - params.eta))]) for t, x in zip(t_at, params.xi)]
    cols = basis_tree(zeros_col, steps, lambda col, m: m @ col).T
    return {
        "reconstruction_residual": float(max(resid, zres.max())),
        "detk_rep_residual": rel_residual(cols - right, right, axis=0),
        "min_overlap": float(np.abs(overlap).min()),
        "states": [{"eigenvalue": complex(val)} for val in dec.values],
    }


def identity_decomposition_residual(params, cache=None):
    """Residual of I = V(xi) sum_h V(xi - h*eta) |h><h|."""
    left, right, _ = (cache or Gl2TransferCache(params)).bases()
    acc = vandermonde(params.xi) * ((right * shifted_vandermonde(params)) @ left)
    return float(np.abs(acc - np.eye(params.dim)).max())
