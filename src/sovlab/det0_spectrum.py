"""Spectrum and scalar products in the orthogonal (det K = 0) regime.

When the twist has simple spectrum and one zero eigenvalue the dressed SoV
families become mutually orthogonal, transfer-matrix actions reduce to local
shifts on the basis labels, eigenstate wave functions factorize over sites,
and overlaps of separate states collapse to products of small determinants.

The four label actions (T_1, T_2 on left and right labels) are one recursion
on the digit-move table :data:`LABEL_MOVES`, and the two determinant overlaps
share one prefactor.
"""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .errors import AmbiguousPattern, SpectrumCollision, SpectrumNotSimple
from .gl3_model import (
    InterpolationWeights,
    default_probe_point,
    require_no_double_shift,
    weight_sectors,
)
from .numkernel import eig_general, rayleigh_quotients, rel_residual, vandermonde, worst
from .sov_bases import flat_index, label_digits, label_products
from .sov_measure import diag_values

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


@dataclass(frozen=True)
class SpectralData:
    """The eigenstates of one probe-point decomposition as one read-only table.

    State s is column s of ``right`` and row s of ``left``, ``t1_xi``,
    ``t1_shift``, ``t2_xi`` and ``t2_shift``; ``index[s]`` is its position in
    the decomposition and ``factorization_residual[s]`` its
    :func:`coordinate_residuals` figure.  ``right[:, s]`` is normalized so its
    coordinate on the label h = (1,...,1) equals one; ``left[s]`` so its
    pairing with the right basis vector at h = (0,...,0) equals one.
    ``t1_xi[s, a]``, ``t1_shift[s, a]`` etc. hold the eigenvalues of T_1, T_2
    at xi_a and xi_a - eta.  The A/B split of every state is read off
    ``t1_xi`` the first time it is asked for (:attr:`site_masks`).
    """

    index: np.ndarray
    right: np.ndarray
    left: np.ndarray
    t1_xi: np.ndarray
    t1_shift: np.ndarray
    t2_xi: np.ndarray
    t2_shift: np.ndarray
    factorization_residual: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def __len__(self):
        return len(self.index)

    def take(self, rows):
        """The sub-table of the states ``rows``, in that order.  ``right``
        keeps its column-major layout, so that each state's column, which
        :func:`norm_direct` pairs, stays contiguous."""
        return SpectralData(self.index[rows], self.right[:, rows], self.left[rows],
                            self.t1_xi[rows], self.t1_shift[rows], self.t2_xi[rows],
                            self.t2_shift[rows], self.factorization_residual[rows])

    @functools.cached_property
    def site_masks(self):
        """``(is_a, band)``, two ``(states, N)`` masks from one pass over every
        state: the sites where |t_1(xi_a)| >= ZERO_THETA * scale, and those
        whose magnitude lies inside [0.1, 10] * ZERO_THETA * scale, where the
        state's split is undecided.  A state's scale is the largest |t_1|
        over both node shifts."""
        mags = np.abs(self.t1_xi)
        # the reference magnitude must survive when every unshifted value is an
        # exact zero (the split can be empty), so include the shifted nodes
        scale = np.maximum(np.maximum(mags.max(axis=1), np.abs(self.t1_shift).max(axis=1)),
                           1e-300)[:, None]
        band = (mags >= 0.1 * ZERO_THETA * scale) & (mags <= 10 * ZERO_THETA * scale)
        is_a = mags >= ZERO_THETA * scale
        for mask in (is_a, band):
            mask.setflags(write=False)
        return is_a, band

    def split(self, row):
        """``(a_sites, b_sites)`` of state ``row``, each ascending; an undecided
        split raises :class:`AmbiguousPattern`."""
        is_a, band = (mask[row] for mask in self.site_masks)
        if band.any():
            raise _ambiguous(band)
        return tuple(np.flatnonzero(is_a).tolist()), tuple(np.flatnonzero(~is_a).tolist())


def _ambiguous(band_row):
    """The refusal of a state whose sites ``band_row`` lie in the decision band."""
    sites = np.where(band_row)[0].tolist()
    return AmbiguousPattern(f"|t_1(xi)| in the ambiguity band at sites {sites}")


def probe_decomposition(cache):
    """Eigendecomposition of T_1 at ``default_probe_point``, one twist-weight
    sector at a time (:func:`weight_sectors`), refused unless its spectrum is
    simple."""
    params = cache.params
    return eig_general(cache.t1(default_probe_point(params)), gap_rtol=1e-6,
                       sectors=weight_sectors(params.twist, params.sites))


def eigensolve_sov(cache, pair, dec):
    """The eigenstates of ``dec``, a :func:`probe_decomposition` of the
    chain, as one :class:`SpectralData` table.

    Eigenvalue functions at the nodes are computed as bilinear Rayleigh
    quotients.  Every right vector is scaled by one product with the all-ones
    member of the left family of ``pair``, the chain's dressed pair, and
    every left vector by one with its all-zeros right member; one GEMM with
    that left family gives every state's coordinates, whose factorization is
    stored per state as a residual in the pair's unit-norm frame
    (:func:`coordinate_residuals`).
    """
    params = cache.params

    n = params.sites
    one_flat = flat_index((1,) * n)
    zero_flat = flat_index((0,) * n)

    def node_values(m, shift):
        """Row i: the eigenvalues of T_m at every xi_a - shift on state i."""
        return np.stack([rayleigh_quotients(dec.left, cache.value(m, x - shift), dec.right)
                         for x in params.xi], axis=1)

    t1x, t1s = node_values(1, 0), node_values(1, params.eta)
    t2x, t2s = node_values(2, 0), node_values(2, params.eta)
    right = dec.right / (pair.left[one_flat] @ dec.right)
    left = dec.left / (dec.left @ pair.right[:, zero_flat])[:, None]
    resids = coordinate_residuals(pair, right, separated_coordinates(t1x.T, t2s.T))
    return SpectralData(np.arange(params.dim), right, left, t1x, t1s, t2x, t2s,
                        np.array(resids))


def separated_coordinates(t1_xi, t2_shift):
    """Coordinates prod_a t_2(xi_a - eta)^[h_a=0] t_1(xi_a)^[h_a=2] of a
    separate state over the dressed left family, for every label h.

    ``(N,)`` eigenvalues give a ``(3^N,)`` vector; ``(N, k)`` ones give the
    ``(3^N, k)`` coordinates of k states.
    """
    return label_products(np.stack([t2_shift, np.ones_like(t1_xi), t1_xi], axis=1))


def coordinate_residuals(pair, vectors, pred):
    """Per column v of ``vectors``, the worst |<h|v> - pred_h| / (|<h|| |v|)
    over the labels h of the left family of ``pair``: predicted
    separate-state coordinates read in the unit-norm frame, with one GEMM
    for all the columns."""
    diff = pair.left @ vectors - pred
    scale = np.multiply.outer(pair.row_norms, np.linalg.norm(vectors, axis=0))
    return [rel_residual(d, s, axis=()) for d, s in zip(diff.T, scale.T)]


def zero_pattern(cache, states):
    """The zero-pattern checks of the table ``states``, which is not changed.

    A state's split (:attr:`SpectralData.site_masks`) puts the sites where
    t_1(xi_a) is nonzero in A and the others in B.  The states whose split
    is decided are kept; for them the complementary zeros of t_2(xi - eta),
    the eigenvalue fusion products and the closed polynomial form of t_2 are
    checked.  The closed form takes one batched Rayleigh quotient over the
    states at each of four extra points.

    Returns ``(kept, excluded, figures)``: the sub-table of the kept states
    in order, ``(index, AmbiguousPattern)`` pairs for the refused ones, and
    the four figures over the kept states (empty when none is kept), each
    the worst over states and sites (:func:`rel_residual` per entry, against
    the state's own scale):

    - ``pattern_zero_residual``: the A-site t_2(xi_a - eta), against
      max(max|t_2(xi - eta)|, max|t_2(xi)|);
    - ``pattern_fusion_residual``: t_1(xi_a) t_1(xi_a - eta) - t_2(xi_a),
      against max(|t_2(xi_a)|, max|t_2(xi - eta)|);
    - ``pattern_t2_closed_form_residual``: t_2(lam) less its closed form,
      against |t_2(lam)|;
    - ``pattern_nonzero_floor``: the smallest B-site |t_2(xi_b - eta)|
      relative to max|t_2(xi - eta)|, a minimum (infinite with no B-site).
    """
    params = cache.params
    is_a, band = states.site_masks
    undecided = band.any(axis=1)
    excluded = [(int(states.index[s]), _ambiguous(band[s])) for s in np.flatnonzero(undecided)]
    rows = np.flatnonzero(~undecided)
    kept, is_a = states.take(rows), is_a[rows]
    if not len(kept):
        return kept, excluded, {}

    t1x, t1s, t2x, t2s = kept.t1_xi, kept.t1_shift, kept.t2_xi, kept.t2_shift
    t2s_scale = np.abs(t2s).max(axis=1, keepdims=True)
    # the a-site values of t_2(xi - eta) are zeros, and so is their maximum
    # when every site is an a-site: scale them by a magnitude that survives
    zero_scale = np.maximum(t2s_scale, np.abs(t2x).max(axis=1, keepdims=True))
    fusion_scale = np.maximum(np.abs(t2x), t2s_scale)
    floor = np.abs(t2s) / np.maximum(t2s_scale, 1e-300)

    xi = np.asarray(params.xi)
    roots = np.where(is_a, xi - params.eta, xi)  # row s: the site zeros of state s's t_2
    w = InterpolationWeights(params)
    closed = []
    for k in range(4):
        lam = params.xi[0] + (3 + k) * params.eta * (1 + 0.2j)
        pred = params.twist.second_inv * w.d(lam - params.eta) * np.prod(lam - roots, axis=1)
        actual = rayleigh_quotients(kept.left, cache.t2(lam), kept.right)
        closed.append(rel_residual(actual - pred, actual, axis=()))

    figures = {
        "pattern_zero_residual": rel_residual(np.where(is_a, t2s, 0), zero_scale, axis=()),
        "pattern_fusion_residual": rel_residual(t1x * t1s - t2x, fusion_scale, axis=()),
        "pattern_t2_closed_form_residual": worst(closed),
        "pattern_nonzero_floor": float(np.min(floor, where=~is_a, initial=np.inf)),
    }
    return kept, excluded, figures


# ---------------------------------------------------------------------------
# transfer-matrix actions on basis labels


#: digit moves of the label actions, keyed by (side, order): the digit at site
#: a maps to (new digit, nested); nested terms expand the T_2 action at xi_a
#: on the moved label
LABEL_MOVES = {
    ("left", 2): {1: (0, False)},
    ("right", 2): {0: (1, False)},
    ("left", 1): {1: (2, False), 2: (1, True)},
    ("right", 1): {0: (2, False), 2: (1, False), 1: (2, True)},
}


def interpolated_action_check(cache, actions, pair, lambdas):
    """Worst residual of the local-shift expansion of T_1/T_2 acting on labels.

    ``actions`` lists ``(h, which, side)``: a label, the order 1 or 2 and
    "left" or "right".  The expansion re-expresses the dense action as label
    shifts weighted by Lagrange coefficients, with the moves of
    :data:`LABEL_MOVES`; T_2 interpolates on the shifts [h_a >= 1] and T_1 on
    [h_a = 2].  It is exact when the twist has a zero quantum determinant.
    ``pair`` is the chain's dressed pair.  Each T_m(lam) is read once and
    acts on every label of its order, one GEMV per label.
    """
    actions = list(actions)
    for _, which, side in actions:
        if (side, which) not in LABEL_MOVES:
            raise ValueError(f"no label action for side {side!r} and order {which!r}")
    params = cache.params
    w = InterpolationWeights(params)

    def terms(side, order, idx, lam):
        table = LABEL_MOVES[(side, order)]
        shifts = tuple(int(d >= 1) if order == 2 else int(d == 2) for d in idx)
        out = [(w.asymptotic(order, shifts, lam), idx)]
        for a, d in enumerate(idx):
            if d in table:
                new, nested = table[d]
                coef = w.g(a, shifts, lam, order)
                moved = idx[:a] + (new,) + idx[a + 1:]
                if nested:
                    out.extend((coef * c, i) for c, i in terms(side, 2, moved, params.xi[a]))
                else:
                    out.append((coef, moved))
        if order == 2:
            out = [(w.d(lam - params.eta) * c, i) for c, i in out]
        return out

    def residual(h, which, side, mat, lam):
        # rows of a left family, columns of a right one
        members = pair.left if side == "left" else pair.right.T
        member = members[flat_index(h)]
        dense = member @ mat if side == "left" else mat @ member
        approx = np.zeros(params.dim, dtype=complex)
        for coef, idx in terms(side, which, h, lam):
            approx += coef * members[flat_index(idx)]
        return rel_residual(dense - approx, dense)

    resids = []
    for lam in lambdas:
        for order in (1, 2):
            labels = [(h, side) for h, which, side in actions if which == order]
            if labels:
                mat = cache.value(order, lam)
                resids += [residual(h, order, side, mat, lam) for h, side in labels]
    return worst(resids)


def boundary_eigenstate_check(cache, pair, lambdas):
    """Eigen-relations of the extreme labels under a zero-determinant twist.

    Checks on the chain's dressed ``pair`` that the all-zeros co-vector is a
    T_2 (and T_1) eigenstate with a d-polynomial profile, the all-twos
    co-vector and every right label in {1,2}^N likewise for T_2, as one
    column block.  Proportionality constants
    are read per member and evaluation point at the member's largest
    reference entry; their spread measures lambda independence.  Each
    T_m(lam) is read once and acts on every block of its order.  Every entry
    is ``(residual, spread)``, the spread of the right block taken over its
    worst member.
    """
    params = cache.params
    digits = label_digits(params.sites)
    w = InterpolationWeights(params)
    row0 = pair.left[(digits == 0).all(axis=1)]

    def t2_profile(lam):
        return w.d(lam - params.eta) * w.d(lam + params.eta)

    def profile_step(members, mat, ref, side):
        # members are the rows of a left block or the columns of a right one
        axis = 1 if side == "left" else 0
        acted = members @ mat if side == "left" else mat @ members
        j = np.argmax(np.abs(ref), axis=axis, keepdims=True)
        top = np.take_along_axis(ref, j, axis)
        if np.abs(top).min() <= 1e-300:
            raise ValueError(
                "evaluation point sits on a zero of the eigenvalue profile; "
                "pick spectral points away from the shifted inhomogeneities"
            )
        const = np.take_along_axis(acted, j, axis) / top
        return rel_residual(acted - const * ref, acted, axis=axis), const.ravel()

    # (members, order, profile, side) of each checked block
    blocks = {
        "zeros_t2": (row0, 2, lambda lam: w.d(lam - params.eta) * w.d(lam), "left"),
        "twos_t2": (pair.left[(digits == 2).all(axis=1)], 2, t2_profile, "left"),
        "zeros_t1": (row0, 1, w.d, "left"),
        "right_family_t2": (pair.right[:, (digits != 0).all(axis=1)], 2, t2_profile, "right"),
    }
    resids = {key: [] for key in blocks}
    consts = {key: [] for key in blocks}
    for lam in lambdas:
        for order in (1, 2):
            mat = cache.value(order, lam)
            for key, (members, which, profile, side) in blocks.items():
                if which == order:
                    resid, const = profile_step(members, mat, profile(lam) * members, side)
                    resids[key].append(resid)
                    consts[key].append(const)
    out = {}
    for key in blocks:
        c = np.array(consts[key])
        if key == "right_family_t2":
            spread = rel_residual(c - c[0], c[:1], axis=0)
        else:
            spread = rel_residual(c[:, 0] - c[0, 0], c[0, 0])
        out[key] = (worst(resids[key]), spread)
    return out


# ---------------------------------------------------------------------------
# separate states and determinant overlaps


@dataclass(frozen=True)
class SeparateState:
    """Factorized coordinates: one coefficient triple per site.

    ``coeffs[a, d]`` multiplies digit value d at site a; the coordinate of the
    state on the dual label h is the product over sites of coeffs[a, h_a].
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.ndim != 2 or self.coeffs.shape[1] != 3:
            raise ValueError("coeffs must have shape (sites, 3)")

    @classmethod
    def random(cls, rng, sites):
        c = rng.uniform(-1, 1, (sites, 3)) + 1j * rng.uniform(-1, 1, (sites, 3))
        return cls(c)

    def coordinates(self):
        """The coordinate of every label, in flat order."""
        return label_products(self.coeffs)


def separate_overlap_direct(alpha, states, row, params):
    """Oracle overlap <alpha|t> of state ``row`` as the full sum over labels
    weighted by the inverse diagonal measure."""
    terms = alpha.coordinates() * separated_coordinates(states.t1_xi[row], states.t2_shift[row])
    return complex(np.sum(terms / diag_values(params)))


def _overlap_factors(states, row, params):
    """Shared factors of the two determinant overlaps of state ``row``:
    ``(w, a_sites, b_sites, x_a, x_b, pref, va)`` with the interpolation
    weights, the state's split, the site-pattern ratios x_A and x_B, the
    prefactor prod_x d(x - 2eta)/d(x - eta) * V(xi_A - eta)/V(xi_A) and
    va = V(xi_A).  An undecided split raises :class:`AmbiguousPattern`."""
    require_no_double_shift(params)
    eta = params.eta
    xi = params.xi
    a_sites, b_sites = states.split(row)
    w = InterpolationWeights(params)

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

    pref = 1.0 + 0j
    for x in xi:
        pref *= w.d(x - 2 * eta) / w.d(x - eta)
    va = vandermonde([xi[a] for a in a_sites])
    pref *= vandermonde([xi[a] - eta for a in a_sites]) / va
    return w, a_sites, b_sites, x_a, x_b, pref, va


def scalar_product_determinant(alpha, states, row, params):
    """Overlap of a separate co-vector with eigenstate ``row`` as two determinants.

    The B-block row for site b combines the digit-0 coefficient (weighted by
    x_A and the reduced eigenvalue d(xi_b - eta) t_2(xi_b - eta)/d(xi_b - 2eta))
    with the digit-1 coefficient on the shifted node; the A-block combines
    digits 1 and 2 with an x_B t_1 weight.  Requires the zero pattern.
    """
    w, a_sites, b_sites, x_a, x_b, pref, va = _overlap_factors(states, row, params)
    eta = params.eta
    xi = params.xi
    t1_xi, t2_shift = states.t1_xi[row], states.t2_shift[row]
    vb = vandermonde([xi[b] for b in b_sites])

    nb = len(b_sites)
    m_plus = np.empty((nb, nb), dtype=complex)
    for i, b in enumerate(b_sites):
        xb = xi[b]
        reduced = w.d(xb - eta) * t2_shift[b] / w.d(xb - 2 * eta)
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
                + alpha.coeffs[a, 2] * x_b(xa) * t1_xi[a] * (xa - eta) ** j
            )
    return complex(pref * np.linalg.det(m_plus) / vb * np.linalg.det(m_minus) / va)


def norm_determinant(states, row, params):
    """Pairing <t|t> of matched left/right eigenstates ``row`` as one determinant.

    Specializes the separate-overlap determinant to the eigenstate's own
    coefficients: the B-block collapses to the product of reduced t_2 values
    times x_A and the A-block factors into prod t_1(xi_a) times a mixed-node
    alternant built from t_1 at both node shifts.
    """
    w, a_sites, b_sites, x_a, x_b, pref, va = _overlap_factors(states, row, params)
    eta = params.eta
    xi = params.xi
    t1_xi, t1_shift, t2_shift = states.t1_xi[row], states.t1_shift[row], states.t2_shift[row]
    for b in b_sites:
        pref *= w.d(xi[b] - eta) * t2_shift[b] / w.d(xi[b] - 2 * eta) * x_a(xi[b])
    for a in a_sites:
        pref *= t1_xi[a]
    na = len(a_sites)
    block = np.empty((na, na), dtype=complex)
    for i, a in enumerate(a_sites):
        xa = xi[a]
        for j in range(na):
            block[i, j] = t1_shift[a] * xa**j + t1_xi[a] * x_b(xa) * (xa - eta) ** j
    return complex(pref * np.linalg.det(block) / va)


def norm_direct(states, row):
    """Direct pairing of the stored (normalized) left/right eigenvectors ``row``."""
    return complex(states.left[row] @ states.right[:, row])
