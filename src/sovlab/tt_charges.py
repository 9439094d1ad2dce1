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

The bases and the fusion check are read on the eigenbasis: a product of
charges is ``R diag(prod of eigenvalues) L``, so no charge matrix is formed
for them.  :meth:`ChargeFamily.charge` gives the dense charge for the checks
that need an operator.
"""

from dataclasses import dataclass, field

import numpy as np

from .det0_spectrum import (
    eigensolve_sov,
    make_khat,
    probe_decomposition,
    separated_coordinates,
)
from .gl3_model import TransferCache, default_probe_point
from .numkernel import rayleigh_quotients, rel_residual
from .sov_bases import (
    SovBasisPair,
    TernaryIndex,
    label_products,
    reference_covector,
    reference_vector_solve,
)


@dataclass
class ChargeFamily:
    """Bi-orthonormal eigenvectors of the invertible-twist chain paired with
    the eigenvalue families of its zero-determinant companion.

    ``right[:, a]`` and ``left[a]`` are the right and left eigenvectors of
    T_1^{(K)} at the probe point, with ``left @ right = I``; the spectral
    projector of eigenstate a is ``outer(right[:, a], left[a])``, and its
    charge eigenvalues are those of K-hat eigenstate ``khat_states[a]``.
    Both sides are sorted by the canonical (Re, Im) key of their probe-point
    eigenvalue; that pairing is a determinism convention, since the fusion
    and orthogonality identities hold per eigenstate for any bijection.
    ``t1_xi``, ``t1_shift``, ``t2_xi`` and ``t2_shift`` are ``(N, dim)``
    tables stacked once from ``khat_states``: row s holds the companion
    eigenvalues of every state at xi_s (xi_s - eta).
    ``probe_residual`` is the ``residual_norm`` of the invertible-twist
    decomposition.
    """

    params: object
    khat_params: object
    right: np.ndarray
    left: np.ndarray
    khat_states: list
    probe_point: complex
    probe_residual: float
    _khat_cache: TransferCache
    t1_xi: np.ndarray = field(init=False, repr=False)
    t1_shift: np.ndarray = field(init=False, repr=False)
    t2_xi: np.ndarray = field(init=False, repr=False)
    t2_shift: np.ndarray = field(init=False, repr=False)
    # K-hat eigenstate rows / columns, for the Rayleigh GEMMs of charge()
    _khat_rows: np.ndarray = field(init=False, repr=False)
    _khat_cols: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = self.khat_states
        for name in ("t1_xi", "t1_shift", "t2_xi", "t2_shift"):
            setattr(self, name, np.stack([getattr(st, name) for st in states], axis=1))
        self._khat_rows = np.stack([st.left for st in states])
        self._khat_cols = np.stack([st.right for st in states], axis=1)

    def charge(self, j, lam):
        """Dense charge matrix of fusion order j in {1, 2} at spectral parameter lam."""
        if j not in (1, 2):
            raise ValueError("charge order must be 1 or 2")
        tj = self._khat_cache.value(j, lam)
        values = rayleigh_quotients(self._khat_rows, tj, self._khat_cols)
        return (self.right * values) @ self.left

    def completeness_residual(self):
        """max |sum_a P_a - I| over the spectral projectors."""
        return float(np.abs(self.right @ self.left - np.eye(self.params.dim)).max())


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
        complex(lam0),
        dec.residual_norm,
        khat_cache,
    )


def fusion_residuals_tt(family):
    """Truncated fusion residuals of the charges at every inhomogeneity:
    C_2(xi - eta) C_1(xi) = C_2(xi - eta) C_2(xi) = 0 and
    C_1(xi - eta) C_1(xi) = C_2(xi).

    The charges share one eigenbasis, so each identity is read on the
    companion eigenvalues, relative to max |t_2(xi_a)|; with
    ``left @ right = I`` (:meth:`ChargeFamily.completeness_residual`) the
    operator identity holds exactly when these do.
    """
    out = {}
    for a in range(family.params.sites):
        t1, t1s = family.t1_xi[a], family.t1_shift[a]
        t2, t2s = family.t2_xi[a], family.t2_shift[a]
        out[(a, "annihilate_1")] = rel_residual(t2s * t1, t2)
        out[(a, "annihilate_2")] = rel_residual(t2s * t2, t2)
        out[(a, "produce_2")] = rel_residual(t1s * t1 - t2, t2)
    return out


def tt_sov_bases(family, xyz):
    """Dressed SoV pair generated by the charges.

    The left family applies C_2(xi_a - eta) for digit 0 and C_1(xi_a) for
    digit 2, the right family C_2(xi_a) for digit 1 and C_1(xi_a) for digit
    2, as the transfer bases do; on the eigenbasis each member is one
    product of companion eigenvalues per state, so each family is one GEMM.
    The left reference is the same tensor co-vector as for the transfer
    bases.  The right reference is *solved* from the duality condition
    <k|0> = delta_{k,0} against the charge-generated left family - the
    transfer-basis tensor vector does not satisfy it (the charges are not
    polynomials in the original transfer matrices at the same nodes).
    """
    p = family.params
    ones = np.ones_like(family.t1_xi)
    v_left = separated_coordinates(family.t1_xi, family.t2_shift)
    v_right = label_products(np.stack([ones, family.t2_xi, family.t1_xi], axis=1))
    ref_row = reference_covector(xyz, p.twist, p)
    left = ((ref_row @ family.right) * v_left) @ family.left
    ref_col = reference_vector_solve(left)
    right = family.right @ (v_right.T * (family.left @ ref_col)[:, None])
    return SovBasisPair(left, right, "dressed", ref_row, ref_col, provenance="charge-family")


def eigenstate_representation_residual(family, pair):
    """The invertible-twist eigenstates must be separate states of the charge
    bases with the companion-model eigenvalue exponents; the worst column's
    relative residual."""
    one_flat = TernaryIndex((1,) * family.params.sites).flat
    coords = pair.left @ family.right
    coords = coords / coords[one_flat]
    pred = separated_coordinates(family.t1_xi, family.t2_shift)
    return rel_residual(coords - pred, coords, axis=0)
