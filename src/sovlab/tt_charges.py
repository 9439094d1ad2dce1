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
for them.  :meth:`ChargeFamily.charge` forms the dense charge of a companion
T_j(lam) that the caller reads, for the checks that need an operator; the
family is a read-only value and holds no transfer cache.
"""

from dataclasses import dataclass

import numpy as np

from .det0_spectrum import coordinate_residuals, probe_decomposition, separated_coordinates
from .numkernel import rank_ratio, rayleigh_quotients, rel_residual, worst
from .sov_bases import (
    SovBasisPair,
    flat_index,
    label_products,
    reference_covector,
    reference_vector_solve,
)


@dataclass(frozen=True)
class ChargeFamily:
    """Bi-orthonormal eigenvectors of the invertible-twist chain paired with
    the eigenvalue families of its zero-determinant companion, read-only.

    ``right[:, a]`` and ``left[a]`` are the right and left eigenvectors of
    T_1^{(K)} at the probe point, with ``left @ right = I``; the spectral
    projector of eigenstate a is ``outer(right[:, a], left[a])``, and its
    charge eigenvalues are those of state a of ``khat``, the companion's
    :func:`det0_spectrum.eigensolve_sov` table (a ``SpectralData``).  Both sides are sorted by
    the canonical order of their probe-point eigenvalue (real part, ties by
    imaginary part: :func:`numkernel.canonical_eig_order`); that pairing
    is a determinism convention, since the fusion and orthogonality
    identities hold per eigenstate for any bijection.  ``probe_residual`` is
    the ``residual_norm`` of the invertible-twist decomposition.
    """

    params: object
    khat_params: object
    right: np.ndarray
    left: np.ndarray
    khat: object
    probe_residual: float

    def charge(self, tj):
        """Dense charge whose eigenvalue on projector a is the Rayleigh
        quotient of ``tj``, a companion T_j(lam), on companion state a."""
        return (self.right * rayleigh_quotients(self.khat.left, tj, self.khat.right)) @ self.left

    def completeness_residual(self):
        """max |sum_a P_a - I| over the spectral projectors."""
        eye = np.eye(self.params.dim)
        return rel_residual(self.right @ self.left - eye, eye)


def build_tt(cache, khat_params, khat):
    """Assemble the charge family for an invertible simple-spectrum twist.

    ``cache`` is the transfer cache of the invertible-twist chain, whose
    probe-point spectrum must be simple, and ``khat_params`` the parameters
    of its zero-determinant companion on the same (sites, eta, xi).
    ``khat`` is the companion's :func:`det0_spectrum.eigensolve_sov` table at
    the same probe point, in canonical order (its normalization does not
    enter the charges).
    """
    params = cache.params
    if (khat_params.sites, khat_params.eta, khat_params.xi) != (
        params.sites,
        params.eta,
        params.xi,
    ):
        raise ValueError("charge construction needs matching (sites, eta, xi)")
    dec = probe_decomposition(cache)
    if len(khat) != params.dim:
        raise ValueError(f"expected {params.dim} companion eigenstates, got {len(khat)}")
    return ChargeFamily(params, khat_params, dec.right, dec.left, khat, dec.residual_norm)


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
    k = family.khat
    for a in range(family.params.sites):
        t1, t1s = k.t1_xi[:, a], k.t1_shift[:, a]
        t2, t2s = k.t2_xi[:, a], k.t2_shift[:, a]
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
    p, k = family.params, family.khat
    ones = np.ones_like(k.t1_xi.T)
    v_left = separated_coordinates(k.t1_xi.T, k.t2_shift.T)
    v_right = label_products(np.stack([ones, k.t2_xi.T, k.t1_xi.T], axis=1))
    ref_row = reference_covector(xyz, p)
    left = ((ref_row @ family.right) * v_left) @ family.left
    norms = np.linalg.norm(left, axis=1)
    rank = rank_ratio(left / norms[:, None]) if norms.min() > 0 else 0.0
    ref_col = reference_vector_solve(left, norms, rank)
    right = family.right @ (v_right.T * (family.left @ ref_col)[:, None])
    return SovBasisPair(left, right, "dressed", ref_row, ref_col)


def eigenstate_representation_residual(family, pair):
    """The invertible-twist eigenstates, each scaled to all-ones coordinate 1,
    must be separate states of the charge bases with the companion-model
    eigenvalue exponents; the worst of :func:`det0_spectrum.coordinate_residuals`."""
    one_flat = flat_index((1,) * family.params.sites)
    states = family.right / (pair.left[one_flat] @ family.right)
    pred = separated_coordinates(family.khat.t1_xi.T, family.khat.t2_shift.T)
    return worst(coordinate_residuals(pair, states, pred))
