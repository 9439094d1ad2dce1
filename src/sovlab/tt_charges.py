"""Conserved charges carrying a degenerate twist's spectrum on an invertible
twist's eigenprojectors.

Given an invertible simple-spectrum twist K and its zero-determinant companion
K-hat (smallest eigenvalue set to zero), the charges

    C_j(lam) = sum_a  t_j^{hat}(lam; a) |t_a> <t_a| / <t_a|t_a>

are built from the spectral projectors of T_1^{(K)} and the eigenvalue
functions of the K-hat model.  They commute with the original transfer
matrices, satisfy the truncated fusion relations of the zero-determinant
hierarchy, and therefore generate mutually orthogonal SoV bases with the same
Vandermonde diagonal as the K-hat model.
"""

from dataclasses import dataclass, field

import numpy as np

from .det0_spectrum import (
    default_probe_point,
    eigensolve_sov,
    make_khat,
    probe_decomposition,
    separated_coordinates,
)
from .gl3_model import TransferCache
from .numkernel import rayleigh_quotients, rel_residual
from .sov_bases import (
    SovBasisPair,
    TernaryIndex,
    build_left_basis,
    build_right_basis,
    reference_covector,
    reference_vector_solve,
)


@dataclass
class ChargeFamily:
    """Bi-orthonormal eigenvectors of the invertible-twist chain paired with
    the eigenvalue families of its zero-determinant companion.

    ``right[:, a]`` and ``left[a]`` are the right and left eigenvectors of
    T_1^{(K)} at the probe point, with ``left @ right = I``; the spectral
    projector of eigenstate a is ``outer(right[:, a], left[a])``.
    ``pairing[a]`` is the K-hat eigenstate index assigned to eigenstate a;
    both sides are sorted by the canonical (Re, Im) key of their probe-point
    eigenvalue, so the pairing is the identity permutation by construction.
    That choice is a determinism convention: the fusion and orthogonality
    identities hold per eigenstate for any bijection.  ``probe_residual`` is
    the ``residual_norm`` of the invertible-twist decomposition.
    """

    params: object
    khat_params: object
    right: np.ndarray
    left: np.ndarray
    khat_states: list
    pairing: tuple
    probe_point: complex
    probe_residual: float
    _khat_cache: TransferCache
    # K-hat eigenstate a rows / columns in pairing order, for the Rayleigh GEMMs
    _khat_rows: np.ndarray = field(init=False, repr=False)
    _khat_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        paired = [self.khat_states[b] for b in self.pairing]
        self._khat_rows = np.stack([st.left for st in paired])
        self._khat_cols = np.stack([st.right for st in paired], axis=1)

    def charge(self, j, lam):
        """Dense charge matrix of fusion order j in {1, 2} at spectral parameter lam."""
        if j not in (1, 2):
            raise ValueError("charge order must be 1 or 2")
        tj = self._khat_cache.value(j, lam)
        values = rayleigh_quotients(self._khat_rows, tj, self._khat_cols)
        return (self.right * values) @ self.left

    # t1/t2 let the family stand in for a TransferCache in the basis builders
    def t1(self, lam):
        return self.charge(1, lam)

    def t2(self, lam):
        return self.charge(2, lam)

    def completeness_residual(self):
        """max |sum_a P_a - I| over the spectral projectors."""
        return float(np.abs(self.right @ self.left - np.eye(self.params.dim)).max())

    def overlap_matrix(self):
        """Pairings of the invertible-twist left eigenstates against the
        companion-model right eigenstates, row-normalized.

        This is the change of basis between the two eigen-families; no
        structural claim is made about it here beyond finiteness, so it is
        exposed for inspection only.
        """
        rows = self.left / np.linalg.norm(self.left, axis=1)[:, None]
        cols = np.stack([st.right / np.linalg.norm(st.right) for st in self.khat_states], axis=1)
        out = rows @ cols
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("overlap matrix contains non-finite entries")
        return out

    def idempotence_residual(self):
        """max_ab |P_a P_b - delta_ab P_a| over the spectral projectors, read
        off the pairings: P_a P_b - delta_ab P_a = ((L R)_ab - delta_ab) r_a l_b."""
        dev = np.abs(self.left @ self.right - np.eye(self.params.dim))
        r_max = np.abs(self.right).max(axis=0)
        l_max = np.abs(self.left).max(axis=1)
        return float((dev * r_max[:, None] * l_max[None, :]).max())


def build_tt(params, khat_params=None, lambda0=None, gap_rtol=1e-6, cache=None,
             khat_cache=None, khat_states=None):
    """Assemble the charge family for an invertible simple-spectrum twist.

    ``khat_params`` defaults to the same chain with the smallest twist
    eigenvalue zeroed.  Both transfer spectra at the probe point must be
    simple.  ``cache`` and ``khat_cache`` are transfer caches of ``params``
    and ``khat_params`` to reuse; the charges keep evaluating through
    ``khat_cache``.  ``khat_states`` are the :func:`eigensolve_sov` states of
    ``khat_params`` at the same probe point, in canonical order, to reuse
    instead of diagonalizing the companion again (their normalization does
    not enter the charges).
    """
    if khat_params is None:
        khat_params = params.with_twist(make_khat(params.twist))
    if (khat_params.sites, khat_params.eta, khat_params.xi) != (
        params.sites,
        params.eta,
        params.xi,
    ):
        raise ValueError("charge construction needs matching (sites, eta, xi)")
    lam0 = default_probe_point(params) if lambda0 is None else lambda0
    dec = probe_decomposition(params, cache or TransferCache(params), lam0, gap_rtol)

    khat_cache = khat_cache or TransferCache(khat_params)
    if khat_states is None:
        # reference components only matter for normalization here; eigensolve
        # validates simplicity of the companion spectrum
        khat_states, _, _ = eigensolve_sov(
            khat_params, (1.0, 1.0, 1.0), lambda0=lam0, cache=khat_cache, gap_rtol=gap_rtol
        )
    elif len(khat_states) != params.dim:
        raise ValueError(f"expected {params.dim} companion eigenstates, got {len(khat_states)}")
    return ChargeFamily(
        params,
        khat_params,
        dec.right,
        dec.left,
        khat_states,
        tuple(range(params.dim)),
        complex(lam0),
        dec.residual_norm,
        khat_cache,
    )


def fusion_residuals_tt(family):
    """Truncated fusion residuals of the charges at every inhomogeneity:
    C_2(xi - eta) C_1(xi) = C_2(xi - eta) C_2(xi) = 0 and
    C_1(xi - eta) C_1(xi) = C_2(xi)."""
    p = family.params
    out = {}
    for a in range(p.sites):
        x = p.xi[a]
        c1 = family.charge(1, x)
        c2 = family.charge(2, x)
        c1s = family.charge(1, x - p.eta)
        c2s = family.charge(2, x - p.eta)
        out[(a, "annihilate_1")] = rel_residual(c2s @ c1, c2)
        out[(a, "annihilate_2")] = rel_residual(c2s @ c2, c2)
        out[(a, "produce_2")] = rel_residual(c1s @ c1 - c2, c2)
    return out


def tt_sov_bases(family, xyz):
    """Dressed SoV pair generated by the charges.

    The left reference is the same tensor co-vector as for the transfer
    bases.  The right reference is *solved* from the duality condition
    <k|0> = delta_{k,0} against the charge-generated left family - the
    transfer-basis tensor vector does not satisfy it (the charges are not
    polynomials in the original transfer matrices at the same nodes).
    """
    p = family.params
    ref_row = reference_covector(xyz, p.twist, p)
    left = build_left_basis(p, ref_row, "dressed", family)
    ref_col = reference_vector_solve(left)
    right = build_right_basis(p, ref_col, "dressed", family)
    return SovBasisPair(left, right, "dressed", ref_row, ref_col, provenance="charge-family")


def eigenstate_representation_residual(family, pair):
    """The invertible-twist eigenstates must be separate states of the charge
    bases with the companion-model eigenvalue exponents."""
    p = family.params
    n = p.sites
    one_flat = TernaryIndex((1,) * n).flat
    worst = 0.0
    for a in range(p.dim):
        st = family.khat_states[family.pairing[a]]
        coords = pair.left @ family.right[:, a]
        coords = coords / coords[one_flat]
        pred = separated_coordinates(st.t1_xi, st.t2_shift)
        worst = max(worst, rel_residual(coords - pred, coords))
    return worst
