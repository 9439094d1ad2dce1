"""Rational gl(2) chain: the rank-one yardstick with orthogonal SoV bases.

Same tensor conventions as the gl(3) model (site 1 fastest).  The left basis
applies T(xi_a)/a(xi_a) to a free tensor co-vector; the right basis applies
T(xi_a - eta)/a(xi_a) to the tensor vector dual to the all-ones label, and
the two families are orthogonal with the inverse coupling
V(xi) * V(xi - h*eta) without any twist dependence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReference
from .gl3_model import fused_dense
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde
from .sov_bases import tensor_product_state


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
        for i in range(self.sites):
            for j in range(self.sites):
                if i == j:
                    continue
                d = self.xi[i] - self.xi[j]
                if min(abs(d), abs(d - self.eta), abs(d + self.eta)) < 1e-12:
                    raise ValueError("inhomogeneities violate the genericity condition")

    @property
    def dim(self):
        return 2**self.sites

    def pairing_form(self):
        """b x^2 + (d - a) x y - c y^2 for K = [[a, b], [c, d]]."""
        x, y = self.ref
        k = self.k_matrix
        return complex(k[0, 1] * x * x + (k[1, 1] - k[0, 0]) * x * y - k[1, 0] * y * y)

    def a_poly(self, lam):
        out = 1.0 + 0j
        for x in self.xi:
            out *= lam - x + self.eta
        return out

    def d_poly(self, lam):
        out = 1.0 + 0j
        for x in self.xi:
            out *= lam - x
        return out


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


def binary_labels(sites):
    """All {0,1}^N labels in flat order, site 1 fastest."""
    for flat in range(2**sites):
        digits = tuple((flat >> a) & 1 for a in range(sites))
        yield digits


def flat2(digits):
    return sum(d << a for a, d in enumerate(digits))


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
    norm_ones = (
        params.eta**n * pair_scalar * n_k**n * v0 * v1
        / np.prod([params.a_poly(xx) for xx in params.xi])
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
    """Left rows <h| and right columns |h> in flat binary order."""
    cache = cache or Gl2TransferCache(params)
    row0, ones_col, zeros_col = reference_states(params)
    t_at = [cache.value(x) for x in params.xi]
    t_sh = [cache.value(x - params.eta) for x in params.xi]
    dim = params.dim
    left = np.empty((dim, dim), dtype=complex)
    right = np.empty((dim, dim), dtype=complex)
    for h in binary_labels(params.sites):
        row = row0.copy()
        col = ones_col.copy()
        for a, d in enumerate(h):
            if d == 1:
                row = row @ t_at[a] / params.a_poly(params.xi[a])
            else:
                col = t_sh[a] @ col / params.a_poly(params.xi[a])
        left[flat2(h)] = row
        right[:, flat2(h)] = col
    return left, right, zeros_col


def coupling_prediction(params, h):
    """1 / (V(xi) V(xi - h*eta)) - the orthogonal coupling of label h."""
    shifted = [params.xi[a] - h[a] * params.eta for a in range(params.sites)]
    return 1.0 / (vandermonde(params.xi) * vandermonde(shifted))


def coupling_residuals(params, cache=None):
    """Coupling matrix G = left @ right of the SoV bases and its deviation
    from the orthogonal prediction.

    Returns ``(G, cells, diagonal)``: the largest deviation over every cell
    relative to max|G|, and the largest over the diagonal relative to each
    predicted coupling.
    """
    left, right, _ = (cache or Gl2TransferCache(params)).bases()
    gram = left @ right
    labels = list(binary_labels(params.sites))
    scale = np.abs(gram).max()
    cells = diagonal = 0.0
    for h in labels:
        pred = coupling_prediction(params, h)
        diagonal = max(diagonal, abs(gram[flat2(h), flat2(h)] - pred) / abs(pred))
        for k in labels:
            cell = gram[flat2(h), flat2(k)] - (pred if h == k else 0.0)
            cells = max(cells, abs(cell) / scale)
    return gram, cells, diagonal


def qdet_scalar(params, a, cache=None):
    """Observed fusion scalar T(xi_a) T(xi_a - eta) and its off-identity residual.

    The observed value matches det K * a(xi_a) d(xi_a - eta); centrality is
    confirmed numerically rather than assumed.
    """
    cache = cache or Gl2TransferCache(params)
    prod = cache.value(params.xi[a]) @ cache.value(params.xi[a] - params.eta)
    scalar = np.trace(prod) / params.dim
    resid = np.abs(prod - scalar * np.eye(params.dim)).max() / max(abs(scalar), 1e-300)
    closed = np.linalg.det(params.k_matrix) * params.a_poly(params.xi[a]) * params.d_poly(
        params.xi[a] - params.eta
    )
    return complex(scalar), float(resid), complex(closed)


def gl2_eigen_reps(params, lambda0=None, cache=None, gap_rtol=1e-8):
    """Reconstruct every eigenstate from its eigenvalue data in the SoV bases.

    For each transfer eigenstate, the right (left) eigenvector is rebuilt from
    t(xi_a) (t(xi_a - eta)) through the label sums with Vandermonde weights and
    compared against the directly diagonalized vector; with an invertible
    twist the alternative det-K weighted right-label representation and the
    nonvanishing overlap with the all-zeros reference are checked as well.
    """
    cache = cache or Gl2TransferCache(params)
    left, right, zeros_col = cache.bases()
    lam0 = params.xi[0] + 13 / 7 * params.eta if lambda0 is None else lambda0
    dec = eig_general(cache.value(lam0), gap_rtol=gap_rtol)

    row0, ones_col, _ = reference_states(params)
    v_xi = vandermonde(params.xi)
    t_at = [cache.value(x) for x in params.xi]
    t_sh = [cache.value(x - params.eta) for x in params.xi]
    # row i: the eigenvalues of state i at every xi_a (xi_a - eta)
    vals_at = np.stack([rayleigh_quotients(dec.left, m, dec.right) for m in t_at], axis=1)
    vals_sh = np.stack([rayleigh_quotients(dec.left, m, dec.right) for m in t_sh], axis=1)
    detk = np.linalg.det(params.k_matrix)
    invertible = abs(detk) > 1e-12 * max(np.abs(params.k_matrix).max(), 1e-300) ** 2

    out = {
        "reconstruction_residual": 0.0,
        "detk_rep_residual": 0.0 if invertible else None,
        "min_overlap": np.inf,
        "states": [],
    }
    labels = list(binary_labels(params.sites))
    for i in range(params.dim):
        v, u = dec.right[:, i], dec.left[i]
        t_val, t_vs = vals_at[i], vals_sh[i]
        v = v / (row0 @ v) / v_xi
        u = u / (u @ ones_col) / v_xi
        vpred = np.zeros(params.dim, dtype=complex)
        upred = np.zeros(params.dim, dtype=complex)
        for h in labels:
            weight = vandermonde(
                [params.xi[a] - h[a] * params.eta for a in range(params.sites)]
            )
            cr = np.prod([(t_val[a] / params.a_poly(params.xi[a])) ** h[a]
                          for a in range(params.sites)])
            cl = np.prod([(t_vs[a] / params.a_poly(params.xi[a])) ** (1 - h[a])
                          for a in range(params.sites)])
            vpred += cr * weight * right[:, flat2(h)]
            upred += cl * weight * left[flat2(h)]
        resid = max(rel_residual(vpred - v, v), rel_residual(upred - u, u))
        out["reconstruction_residual"] = max(out["reconstruction_residual"], float(resid))

        overlap = np.prod([t_vs[a] / params.a_poly(params.xi[a]) for a in range(params.sites)])
        # the stated normalization puts <t|zeros> at overlap / V(xi)
        out["min_overlap"] = min(out["min_overlap"], float(abs(overlap)))
        zres = abs(u @ zeros_col - overlap / v_xi) / max(abs(overlap / v_xi), 1e-300)
        out["reconstruction_residual"] = max(out["reconstruction_residual"], float(zres))

        if invertible:
            worst = 0.0
            # right-label det-K representation: |h> from the zeros reference
            for h in labels:
                col = zeros_col.copy()
                for a, d in enumerate(h):
                    if d == 1:
                        col = t_at[a] @ col / (detk * params.d_poly(params.xi[a] - params.eta))
                worst = max(worst, rel_residual(col - right[:, flat2(h)], right[:, flat2(h)]))
            out["detk_rep_residual"] = max(out["detk_rep_residual"], float(worst))
        out["states"].append({"eigenvalue": complex(dec.values[i])})
    return out


def identity_decomposition_residual(params, cache=None):
    """Residual of I = V(xi) sum_h V(xi - h*eta) |h><h|."""
    left, right, _ = (cache or Gl2TransferCache(params)).bases()
    acc = np.zeros((params.dim, params.dim), dtype=complex)
    for h in binary_labels(params.sites):
        weight = vandermonde([params.xi[a] - h[a] * params.eta for a in range(params.sites)])
        acc += weight * np.outer(right[:, flat2(h)], left[flat2(h)])
    acc *= vandermonde(params.xi)
    return float(np.abs(acc - np.eye(params.dim)).max())
