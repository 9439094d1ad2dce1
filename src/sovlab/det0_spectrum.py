"""Spectrum and scalar products in the orthogonal (det K = 0) regime.

When the twist has simple spectrum and one zero eigenvalue the dressed SoV
families become mutually orthogonal, transfer-matrix actions reduce to local
shifts on the basis labels, eigenstate wave functions factorize over sites,
and overlaps of separate states collapse to products of small determinants.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousPattern,
    PatternMissing,
    SpectrumCollision,
    SpectrumNotSimple,
)
from .gl3_model import InterpolationWeights, TransferCache, default_probe_point
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde
from .sov_bases import TernaryIndex, dressed_pair, label_digits, label_products
from .sov_measure import diag_values, gram

#: relative eigenvalue-zero threshold for the A/B site partition
ZERO_THETA = 1e-6


def make_khat(twist):
    """Copy of a diagonalizable simple-spectrum twist with its smallest
    eigenvalue replaced by zero (same change of basis)."""
    if twist.case != "i":
        raise SpectrumNotSimple("zeroing an eigenvalue requires a diagonalizable case-i twist")
    vals = list(twist.eigenvalues)
    k_min = min(range(3), key=lambda i: abs(vals[i]))
    vals[k_min] = 0.0
    scale = max(abs(v) for v in vals)
    gaps = [abs(vals[i] - vals[j]) for i in range(3) for j in range(i + 1, 3)]
    # match the simplicity margin required of the transfer spectra downstream
    if min(gaps) <= 1e-6 * scale:
        raise SpectrumCollision("zeroing the smallest eigenvalue leaves a repeated eigenvalue")
    kj = np.diag(vals).astype(complex)
    return twist.from_jordan(twist.w, kj)


def ortho_suite_det0(params, xyz, rtol=1e-9, cache=None):
    """Orthogonality report of the dressed pair for a zero-determinant twist.

    Returns the off-diagonal cosine maximum, the relative error of the
    diagonal against the Vandermonde formula, and the underlying report.
    """
    kscale = max(np.abs(params.twist.k_matrix).max(), 1e-300) ** 3
    if abs(params.twist.det) > rtol * kscale:
        raise ValueError("ortho_suite_det0 expects a numerically zero determinant")
    cache = cache or TransferCache(params)
    pair = dressed_pair(params, xyz, cache)
    report = gram(pair.left, pair.right, params, rtol)
    return {
        "offdiag_cosine": report.max_offdiag_cosine,
        "diag_rel_err": report.max_diag_rel_err,
        "report": report,
        "pair": pair,
    }


@dataclass
class SpectralData:
    """One transfer-matrix eigenstate with its eigenvalue data.

    ``right`` is normalized so its coordinate on the label h = (1,...,1)
    equals one; ``left`` so its pairing with the right basis vector at
    h = (0,...,0) equals one.  ``t1_xi[a]``, ``t1_shift[a]`` etc. hold the
    eigenvalues of T_1, T_2 at xi_a and xi_a - eta.  ``perm``/``msize`` are
    filled by :func:`zero_pattern`.
    """

    index: int
    right: np.ndarray
    left: np.ndarray
    t1_xi: np.ndarray
    t1_shift: np.ndarray
    t2_xi: np.ndarray
    t2_shift: np.ndarray
    factorization_residual: float
    perm: tuple = None
    msize: int = None
    pattern_diagnostics: dict = field(default_factory=dict)

    @property
    def a_sites(self):
        self._need_pattern()
        return self.perm[: self.msize]

    @property
    def b_sites(self):
        self._need_pattern()
        return self.perm[self.msize:]

    def _need_pattern(self):
        if self.perm is None:
            raise PatternMissing("run zero_pattern on this eigenstate first")


def probe_decomposition(params, cache, lambda0=None, gap_rtol=1e-6):
    """Eigendecomposition of T_1 at the probe point (``default_probe_point``
    unless ``lambda0`` is given), refused unless its spectrum is simple."""
    lam0 = default_probe_point(params) if lambda0 is None else lambda0
    return eig_general(cache.t1(lam0), gap_rtol=gap_rtol)


def eigensolve_sov(params, xyz, lambda0=None, pair=None, cache=None, gap_rtol=1e-6, dec=None):
    """Diagonalize T_1 at a generic point and package the eigenstates.

    Returns ``(states, pair, cache)``.  Eigenvalue functions at the nodes are
    computed as bilinear Rayleigh quotients, wave-function factorization over
    the dressed left basis is verified per state and stored as a residual.
    ``dec`` is a :func:`probe_decomposition` of the same chain to reuse
    (``lambda0`` and ``gap_rtol`` then go unused).
    """
    cache = cache or TransferCache(params)
    pair = pair or dressed_pair(params, xyz, cache)
    dec = dec or probe_decomposition(params, cache, lambda0, gap_rtol)

    n = params.sites
    one_flat = TernaryIndex((1,) * n).flat
    zero_flat = TernaryIndex((0,) * n).flat

    def node_values(m, shift):
        """Row i: the eigenvalues of T_m at every xi_a - shift on state i."""
        return np.stack([rayleigh_quotients(dec.left, cache.value(m, x - shift), dec.right)
                         for x in params.xi], axis=1)

    t1x, t1s = node_values(1, 0), node_values(1, params.eta)
    t2x, t2s = node_values(2, 0), node_values(2, params.eta)
    states = []
    for i in range(params.dim):
        v, u = dec.right[:, i], dec.left[i]
        v = v / (pair.left[one_flat] @ v)
        u = u / (u @ pair.right[:, zero_flat])
        coords = pair.left @ v
        worst = rel_residual(coords - separated_coordinates(t1x[i], t2s[i]), coords)
        states.append(SpectralData(i, v, u, t1x[i], t1s[i], t2x[i], t2s[i], worst))
    return states, pair, cache


def separated_coordinates(t1_xi, t2_shift):
    """Coordinates prod_a t_2(xi_a - eta)^[h_a=0] t_1(xi_a)^[h_a=2] of a
    separate state over the dressed left family, for every label h.

    ``(N,)`` eigenvalues give a ``(3^N,)`` vector; ``(N, k)`` ones give the
    ``(3^N, k)`` coordinates of k states.
    """
    return label_products(np.stack([t2_shift, np.ones_like(t1_xi), t1_xi], axis=1))


def zero_pattern(state, params, cache=None, theta=ZERO_THETA, n_extra=4):
    """Partition the sites by the zero pattern of the eigenvalue functions.

    Sites where |t_1(xi_a)| >= theta * scale come first in the returned
    permutation (their count is the split size).  Magnitudes falling inside
    [0.1 theta, 10 theta] * scale are refused as ambiguous.  The complementary
    zeros of t_2(xi - eta), the eigenvalue fusion products and the closed
    polynomial form of t_2 are verified and stored as diagnostics.
    """
    cache = cache or TransferCache(params)
    mags = np.abs(state.t1_xi)
    # the reference magnitude must survive when every unshifted value is an
    # exact zero (the split can be empty), so include the shifted nodes
    scale = max(mags.max(), np.abs(state.t1_shift).max(), 1e-300)
    band = (mags >= 0.1 * theta * scale) & (mags <= 10 * theta * scale)
    if band.any():
        raise AmbiguousPattern(
            f"|t_1(xi)| in the ambiguity band at sites {np.where(band)[0].tolist()}"
        )
    a_sites = tuple(int(a) for a in np.where(mags >= theta * scale)[0])
    b_sites = tuple(int(b) for b in np.where(mags < theta * scale)[0])
    perm = a_sites + b_sites
    msize = len(a_sites)

    t2s_scale = max(np.abs(state.t2_shift).max(), 1e-300)
    # the a-site values of t_2(xi - eta) are zeros, and so is their maximum
    # when every site is an a-site: scale them by a magnitude that survives
    zero_scale = max(t2s_scale, np.abs(state.t2_xi).max())
    zero_resid = max((abs(state.t2_shift[a]) for a in a_sites), default=0.0) / zero_scale
    nonzero_floor = min((abs(state.t2_shift[b]) for b in b_sites), default=np.inf) / t2s_scale
    fusion_resid = 0.0
    for a in range(params.sites):
        lhs = state.t1_xi[a] * state.t1_shift[a]
        fusion_resid = max(
            fusion_resid, abs(lhs - state.t2_xi[a]) / max(abs(state.t2_xi[a]), t2s_scale)
        )

    w = InterpolationWeights(params)
    closed_resid = 0.0
    for k in range(n_extra):
        lam = params.xi[0] + (3 + k) * params.eta * (1 + 0.2j)
        pred = params.twist.second_inv * w.d(lam - params.eta)
        for a in a_sites:
            pred *= lam - (params.xi[a] - params.eta)
        for b in b_sites:
            pred *= lam - params.xi[b]
        actual = rayleigh_quotients(state.left[None], cache.t2(lam), state.right[:, None])[0]
        closed_resid = max(closed_resid, rel_residual(actual - pred, actual))

    state.perm = perm
    state.msize = msize
    state.pattern_diagnostics = {
        "zero_residual": float(zero_resid),
        "nonzero_floor": float(nonzero_floor),
        "fusion_residual": float(fusion_resid),
        "t2_closed_form_residual": float(closed_resid),
    }
    return perm, msize


# ---------------------------------------------------------------------------
# transfer-matrix actions on basis labels


def interpolated_action_check(params, h, which, side, xyz, lambdas, cache=None):
    """Residual of the local-shift expansion of T_1/T_2 acting on one label.

    ``which`` is 1 or 2, ``side`` "left" or "right".  The expansion re-expresses
    the dense action as label shifts weighted by Lagrange coefficients; it is
    exact when the twist has a zero quantum determinant.
    """
    cache = cache or TransferCache(params)
    pair = dressed_pair(params, xyz, cache)
    w = InterpolationWeights(params)
    n = params.sites
    worst = 0.0

    def zshift(idx):
        return tuple(1 if d in (1, 2) else 0 for d in idx.digits)

    def yshift(idx):
        return tuple(1 if d == 2 else 0 for d in idx.digits)

    def left_t2_terms(idx, lam):
        z = zshift(idx)
        terms = [(w.asymptotic(2, z, lam), idx)]
        for a, d in enumerate(idx.digits):
            if d == 1:
                terms.append((w.g(a, z, lam, 2), idx.with_digit(a, 0)))
        return [(w.d(lam - params.eta) * c, i) for c, i in terms]

    def left_t1_terms(idx, lam):
        y = yshift(idx)
        terms = [(w.asymptotic(1, y, lam), idx)]
        for a, d in enumerate(idx.digits):
            if d == 1:
                terms.append((w.g(a, y, lam, 1), idx.with_digit(a, 2)))
            elif d == 2:
                lowered = idx.with_digit(a, 1)
                coef = w.g(a, y, lam, 1)
                terms.extend(
                    (coef * c, i) for c, i in left_t2_terms(lowered, params.xi[a])
                )
        return terms

    def right_t2_terms(idx, lam):
        z = zshift(idx)
        terms = [(w.asymptotic(2, z, lam), idx)]
        for a, d in enumerate(idx.digits):
            if d == 0:
                terms.append((w.g(a, z, lam, 2), idx.with_digit(a, 1)))
        return [(w.d(lam - params.eta) * c, i) for c, i in terms]

    def right_t1_terms(idx, lam):
        y = yshift(idx)
        terms = [(w.asymptotic(1, y, lam), idx)]
        for a, d in enumerate(idx.digits):
            if d == 0:
                terms.append((w.g(a, y, lam, 1), idx.with_digit(a, 2)))
            elif d == 2:
                terms.append((w.g(a, y, lam, 1), idx.with_digit(a, 1)))
            else:
                raised = idx.with_digit(a, 2)
                coef = w.g(a, y, lam, 1)
                terms.extend(
                    (coef * c, i) for c, i in right_t2_terms(raised, params.xi[a])
                )
        return terms

    builders = {
        ("left", 2): left_t2_terms,
        ("left", 1): left_t1_terms,
        ("right", 2): right_t2_terms,
        ("right", 1): right_t1_terms,
    }
    build = builders[(side, which)]
    for lam in lambdas:
        if side == "left":
            dense = pair.left[h.flat] @ cache.value(which, lam)
            approx = np.zeros(params.dim, dtype=complex)
            for coef, idx in build(h, lam):
                approx += coef * pair.left[idx.flat]
        else:
            dense = cache.value(which, lam) @ pair.right[:, h.flat]
            approx = np.zeros(params.dim, dtype=complex)
            for coef, idx in build(h, lam):
                approx += coef * pair.right[:, idx.flat]
        worst = max(worst, rel_residual(dense - approx, dense))
    return worst


def boundary_eigenstate_check(params, xyz, lambdas, cache=None):
    """Eigen-relations of the extreme labels under a zero-determinant twist.

    Checks that the all-zeros co-vector is a T_2 (and T_1) eigenstate with a
    d-polynomial profile, the all-twos co-vector and every right label in
    {1,2}^N likewise for T_2, as one column block.  Proportionality constants
    are read per member and evaluation point at the member's largest
    reference entry; their spread measures lambda independence.
    """
    cache = cache or TransferCache(params)
    pair = dressed_pair(params, xyz, cache)
    digits = label_digits(params.sites)
    w = InterpolationWeights(params)
    row0 = pair.left[(digits == 0).all(axis=1)]
    row2 = pair.left[(digits == 2).all(axis=1)]

    def profile_residual(members, which, profile, side):
        # members are the rows of a left block or the columns of a right one
        axis = 1 if side == "left" else 0
        consts = []
        resid = 0.0
        for lam in lambdas:
            mat = cache.value(which, lam)
            acted = members @ mat if side == "left" else mat @ members
            ref = profile(lam) * members
            j = np.argmax(np.abs(ref), axis=axis, keepdims=True)
            top = np.take_along_axis(ref, j, axis)
            if np.abs(top).min() <= 1e-300:
                raise ValueError(
                    "evaluation point sits on a zero of the eigenvalue profile; "
                    "pick spectral points away from the shifted inhomogeneities"
                )
            const = np.take_along_axis(acted, j, axis) / top
            resid = max(resid, rel_residual(acted - const * ref, acted, axis=axis))
            consts.append(const.ravel())
        return resid, np.array(consts)

    def covector(row, which, profile):
        resid, consts = profile_residual(row, which, profile, "left")
        c = consts[:, 0]
        return resid, complex(c[0]), rel_residual(c - c[0], c[0])

    def t2_profile(lam):
        return w.d(lam - params.eta) * w.d(lam + params.eta)

    return {
        "zeros_t2": covector(row0, 2, lambda lam: w.d(lam - params.eta) * w.d(lam)),
        "twos_t2": covector(row2, 2, t2_profile),
        "zeros_t1": covector(row0, 1, lambda lam: w.d(lam)),
        "right_family_t2": profile_residual(
            pair.right[:, (digits != 0).all(axis=1)], 2, t2_profile, "right")[0],
    }


# ---------------------------------------------------------------------------
# separate states and determinant overlaps


@dataclass(frozen=True)
class SeparateState:
    """Factorized coordinates: one coefficient triple per site.

    ``coeffs[a, d]`` multiplies digit value d at site a; the coordinate of the
    state on the dual label h is the product over sites of coeffs[a, h_a].
    """

    coeffs: np.ndarray
    side: str = "covector"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != 3:
            raise ValueError("coeffs must have shape (sites, 3)")

    @classmethod
    def random(cls, rng, sites, side="covector"):
        c = rng.uniform(-1, 1, (sites, 3)) + 1j * rng.uniform(-1, 1, (sites, 3))
        return cls(c, side)

    @classmethod
    def from_eigenstate(cls, state, side="covector"):
        """The coefficient pattern that reproduces the eigenstate itself."""
        n = len(state.t1_xi)
        c = np.ones((n, 3), dtype=complex)
        for a in range(n):
            if side == "covector":
                c[a, 1] = state.t2_xi[a]
                c[a, 2] = state.t1_xi[a]
            else:
                c[a, 0] = state.t2_shift[a]
                c[a, 2] = state.t1_xi[a]
        return cls(c, side)

    def coordinate(self, h):
        out = 1.0 + 0j
        for a, d in enumerate(h.digits):
            out *= self.coeffs[a, d]
        return out

    def coordinates(self):
        """:meth:`coordinate` of every label, in flat order."""
        return label_products(self.coeffs)


def separate_overlap_direct(alpha, state, params):
    """Oracle overlap <alpha|t> as the full sum over labels weighted by the
    inverse diagonal measure."""
    terms = alpha.coordinates() * separated_coordinates(state.t1_xi, state.t2_shift)
    return complex(np.sum(terms / diag_values(params)))


def _pattern_functions(state, params):
    state._need_pattern()
    eta = params.eta
    xi = params.xi
    a_sites, b_sites = state.a_sites, state.b_sites

    def x_a(lam):
        out = 1.0 + 0j
        for a in a_sites:
            out *= (lam - xi[a] + eta) / (lam - xi[a])
        return out

    def x_b(lam):
        out = 1.0 + 0j
        for b in b_sites:
            out *= (lam - xi[b] - eta) / (lam - xi[b])
        return out

    return a_sites, b_sites, x_a, x_b


def scalar_product_determinant(alpha, state, params):
    """Overlap of a separate co-vector with an eigenstate as two determinants.

    The B-block row for site b combines the digit-0 coefficient (weighted by
    x_A and the reduced eigenvalue d(xi_b - eta) t_2(xi_b - eta)/d(xi_b - 2eta))
    with the digit-1 coefficient on the shifted node; the A-block combines
    digits 1 and 2 with an x_B t_1 weight.  Requires the zero pattern.
    """
    a_sites, b_sites, x_a, x_b = _pattern_functions(state, params)
    eta = params.eta
    xi = params.xi
    w = InterpolationWeights(params)
    pref = 1.0 + 0j
    for x in xi:
        pref *= w.d(x - 2 * eta) / w.d(x - eta)
    va = vandermonde([xi[a] for a in a_sites])
    va1 = vandermonde([xi[a] - eta for a in a_sites])
    vb = vandermonde([xi[b] for b in b_sites])
    pref *= va1 / va

    nb = len(b_sites)
    m_plus = np.empty((nb, nb), dtype=complex)
    for i, b in enumerate(b_sites):
        xb = xi[b]
        reduced = w.d(xb - eta) * state.t2_shift[b] / w.d(xb - 2 * eta)
        for j in range(nb):
            m_plus[i, j] = (
                alpha.coeffs[b, 0] * x_a(xb) * reduced * xb**j
                + alpha.coeffs[b, 1] * (xb - eta) ** j
            )
    na = len(a_sites)
    m_minus = np.empty((na, na), dtype=complex)
    for i, a in enumerate(a_sites):
        xa = xi[a]
        for j in range(na):
            m_minus[i, j] = (
                alpha.coeffs[a, 1] * xa**j
                + alpha.coeffs[a, 2] * x_b(xa) * state.t1_xi[a] * (xa - eta) ** j
            )
    return complex(pref * np.linalg.det(m_plus) / vb * np.linalg.det(m_minus) / va)


def norm_determinant(state, params, cache=None):
    """Pairing <t|t> of matched left/right eigenstates as one determinant.

    Specializes the separate-overlap determinant to the eigenstate's own
    coefficients: the B-block collapses to the product of reduced t_2 values
    times x_A and the A-block factors into prod t_1(xi_a) times a mixed-node
    alternant built from t_1 at both node shifts.
    """
    cache = cache or TransferCache(params)
    a_sites, b_sites, x_a, x_b = _pattern_functions(state, params)
    eta = params.eta
    xi = params.xi
    w = InterpolationWeights(params)
    pref = 1.0 + 0j
    for x in xi:
        pref *= w.d(x - 2 * eta) / w.d(x - eta)
    va = vandermonde([xi[a] for a in a_sites])
    va1 = vandermonde([xi[a] - eta for a in a_sites])
    pref *= va1 / va
    for b in b_sites:
        pref *= w.d(xi[b] - eta) * state.t2_shift[b] / w.d(xi[b] - 2 * eta) * x_a(xi[b])
    for a in a_sites:
        pref *= state.t1_xi[a]
    na = len(a_sites)
    block = np.empty((na, na), dtype=complex)
    for i, a in enumerate(a_sites):
        xa = xi[a]
        for j in range(na):
            block[i, j] = state.t1_shift[a] * xa**j + state.t1_xi[a] * x_b(xa) * (xa - eta) ** j
    return complex(pref * np.linalg.det(block) / va)


def norm_direct(state):
    """Direct pairing of the stored (normalized) left/right eigenvectors."""
    return complex(state.left @ state.right)
