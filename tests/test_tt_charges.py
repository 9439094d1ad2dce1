import dataclasses

import numpy as np
import pytest

from sovlab.det0_spectrum import (
    SeparateState,
    make_khat,
    norm_determinant,
    scalar_product_determinant,
    zero_pattern,
)
from sovlab.gl3_model import ModelParams, TransferCache, TwistData
from sovlab.numkernel import eig_general, rel_residual
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import flat_index, reference_covector, transfer_family
from sovlab.sov_measure import diag_values, gram
from sovlab.tt_charges import (
    build_tt,
    eigenstate_representation_residual,
    fusion_residuals_tt,
    tt_sov_bases,
)

from conftest import eigenstates, make_params


class Charges:
    """Dense charges of a family, read through its companion chain's cache:
    ``t1(lam)`` and ``t2(lam)`` are C_1(lam) and C_2(lam), so the basis
    builders can take the family as a transfer cache."""

    def __init__(self, family, khat_cache=None):
        self.family = family
        self.params = family.params
        self.khat_cache = khat_cache or TransferCache(family.khat_params)

    def t1(self, lam):
        return self.family.charge(self.khat_cache.t1(lam))

    def t2(self, lam):
        return self.family.charge(self.khat_cache.t2(lam))


def charge_family(cache):
    """:func:`build_tt` of a chain with its K-hat companion's eigenstates."""
    params = cache.params
    khat_cache = TransferCache(params.with_twist(make_khat(params.twist)))
    return build_tt(cache, khat_cache.params, eigenstates(khat_cache, (1.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def family2(chain2):
    params, xyz, cache, _ = chain2
    return params, xyz, cache, charge_family(cache)


def test_build_tt_reuses_given_caches(chain2):
    """A fresh cache of the same chain gives the same family; the family is
    a read-only value that holds no transfer cache, and a charge reads only
    the companion matrix it is given."""
    params, _, _, _ = chain2
    fresh = charge_family(TransferCache(params))
    cache = TransferCache(params)
    shared = build_tt(cache, fresh.khat_params, fresh.khat)
    assert np.array_equal(shared.right, fresh.right) and np.array_equal(shared.left, fresh.left)
    assert cache.misses[1] > 0
    assert not any(isinstance(v, TransferCache) for v in vars(shared).values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.khat = fresh.khat
    t2 = TransferCache(fresh.khat_params).t2(params.xi[0] + 0.3)
    assert np.array_equal(shared.charge(t2), fresh.charge(t2))


def test_build_tt_reuses_given_khat_states(chain2):
    """Companion eigenstates normalized against another reference give the
    same charges, at the nodes and off them."""
    params, xyz, cache, _ = chain2
    own = Charges(charge_family(cache))
    states = eigenstates(own.khat_cache, xyz)
    given = Charges(build_tt(cache, own.family.khat_params, states), own.khat_cache)
    assert given.family.khat is states
    lam = complex(*np.random.default_rng(17).uniform(-1, 1, 2))
    points = [lam] + [x - s for x in params.xi for s in (0, params.eta)]
    for charge in ("t1", "t2"):
        for x in points:
            want = getattr(own, charge)(x)
            assert rel_residual(getattr(given, charge)(x) - want, want) <= 1e-12
    with pytest.raises(ValueError, match="companion eigenstates"):
        build_tt(cache, own.family.khat_params, states.take(np.arange(params.dim - 1)))


def test_one_site_closed_form():
    """With one site the charges share the twist eigenvectors and carry the
    companion twist's shifted eigenvalues (lam - xi) tr(K-hat) + eta k-hat."""
    params, xyz, _ = make_params(301, 1)
    family = charge_family(TransferCache(params))
    lam = 0.4 - 0.9j
    c1 = Charges(family).t1(lam)
    khat = family.khat_params.twist
    dec = eig_general(c1)
    want = sorted(
        ((lam - params.xi[0]) * khat.trace_inv + params.eta * k for k in khat.eigenvalues),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    got = sorted(dec.values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for w, g in zip(want, got):
        assert abs(w - g) <= 1e-10 * max(abs(w), 1)
    # eigenvectors match the twist's (one-site transfer matrices are K-linear)
    kvecs = eig_general(params.twist.k_matrix)
    overlap = np.abs(np.linalg.det(np.linalg.solve(kvecs.right, dec.right)))
    assert overlap > 1e-6


def test_projector_family(family2):
    _, _, _, family = family2
    assert family.completeness_residual() <= 1e-8


def test_projector_residuals_match_dense_projectors(family2):
    """The completeness residual read off the eigenvector pairings equals the
    one of the explicit dense projectors P_a = r_a l_a, on a pair perturbed
    so that it is far above rounding."""
    _, _, _, family = family2
    left = family.left + 1e-3 * np.random.default_rng(3).standard_normal((9, 9)) @ family.left
    perturbed = dataclasses.replace(family, left=left)
    projectors = [np.outer(family.right[:, a], left[a]) for a in range(9)]
    complete = np.abs(sum(projectors) - np.eye(9)).max()
    assert complete > 1e-6
    assert perturbed.completeness_residual() == pytest.approx(complete, rel=1e-9)


def test_truncated_fusion(family2):
    _, _, _, family = family2
    assert max(fusion_residuals_tt(family).values()) <= 1e-8


@pytest.fixture(scope="module", params=["chain2", "chain3"])
def oracle_family(request):
    params, xyz, cache, _ = request.getfixturevalue(request.param)
    return params, xyz, charge_family(cache)


def test_charge_bases_match_dense_charge_products(oracle_family):
    """Every member of the spectral charge bases matches the basis tree over
    dense charges, relative to its norm; the right family is built from the
    same solved reference vector.  The basis tree over dense charges is an
    oracle independent of the eigenbasis products of :func:`tt_sov_bases`."""
    params, xyz, family = oracle_family
    pair = tt_sov_bases(family, xyz)
    dense = Charges(family)
    ref_row = reference_covector(xyz, params)
    left = transfer_family(dense, ref_row, "dressed", "left")
    right = transfer_family(dense, pair.ref_vector, "dressed", "right")
    left_err = np.linalg.norm(pair.left - left, axis=1) / np.linalg.norm(left, axis=1)
    right_err = np.linalg.norm(pair.right - right, axis=0) / np.linalg.norm(right, axis=0)
    assert left_err.max() <= 1e-11
    assert right_err.max() <= 1e-11


def test_dense_truncated_fusion(oracle_family):
    """The truncated fusion identities hold as operator identities on the
    dense charges: C_2(xi - eta) C_1(xi) = C_2(xi - eta) C_2(xi) = 0 and
    C_1(xi - eta) C_1(xi) = C_2(xi)."""
    params, _, family = oracle_family
    charges = Charges(family)
    worst = 0.0
    for x in params.xi:
        c1, c2 = charges.t1(x), charges.t2(x)
        c1s, c2s = charges.t1(x - params.eta), charges.t2(x - params.eta)
        worst = max(worst, rel_residual(c2s @ c1, c2), rel_residual(c2s @ c2, c2),
                    rel_residual(c1s @ c1 - c2, c2))
    assert worst <= 1e-8
    assert max(fusion_residuals_tt(family).values()) <= 1e-8


def test_commutation_with_transfer(family2):
    params, _, cache, family = family2
    charges = Charges(family)
    s = ParameterSampler(310)
    for _ in range(3):
        t = cache.t1(s.complex_rational())
        c = charges.t1(s.complex_rational())
        c2 = charges.t2(s.complex_rational())
        for x in (c, c2):
            comm = t @ x - x @ t
            assert np.abs(comm).max() <= 1e-9 * max(np.abs(t @ x).max(), 1e-300)
        comm = c @ c2 - c2 @ c
        assert np.abs(comm).max() <= 1e-9 * max(np.abs(c @ c2).max(), 1e-300)


def test_central_zeros(family2):
    params, _, _, family = family2
    charges = Charges(family)
    scale = np.abs(charges.t2(params.xi[0])).max()
    for x in params.xi:
        assert np.abs(charges.t2(x + params.eta)).max() <= 1e-9 * scale


def test_charge_bases_orthogonal_with_vandermonde_diagonal():
    s = ParameterSampler(311)
    eta = s.shift()
    twist = TwistData.from_eigenvalues([1.0, 2.0, 3.0])
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    family = charge_family(TransferCache(params))
    pair = tt_sov_bases(family, s.reference3())
    report = gram(pair, family.khat_params)
    assert report.max_offdiag_cosine <= 1e-9
    assert report.max_diag_rel_err <= 1e-8


def test_eigenstate_representation(family2):
    params, xyz, _, family = family2
    pair = tt_sov_bases(family, xyz)
    assert eigenstate_representation_residual(family, pair) <= 1e-7


def test_diagonal_independent_of_zeroed_eigenvalue(family2):
    """Two invertible twists sharing the companion spectrum give the same
    charge-basis diagonal."""
    params, xyz, _, family = family2
    pair = tt_sov_bases(family, xyz)
    g1 = np.diagonal(pair.left @ pair.right)
    eigs = list(params.twist.eigenvalues)
    idx = int(np.argmin(np.abs(eigs)))
    eigs[idx] = 0.5 * eigs[idx]  # still the smallest: same companion spectrum
    other = params.with_twist(TwistData.from_eigenvalues(eigs, w=params.twist.w))
    assert np.abs(np.array(make_khat(other.twist).eigenvalues)
                  - np.array(family.khat_params.twist.eigenvalues)).max() <= 1e-12
    family2_ = charge_family(TransferCache(other))
    pair2 = tt_sov_bases(family2_, xyz)
    g2 = np.diagonal(pair2.left @ pair2.right)
    assert np.abs(g1 - g2).max() <= 1e-8 * np.abs(g1).max()


def test_determinant_formulas_in_charge_bases(family2):
    """Overlaps of separate states with the invertible-twist eigenstates take
    the same determinant form, driven by the companion-model eigenvalues."""
    params, xyz, cache, family = family2
    kp = family.khat_params
    khat_cache = TransferCache(kp)
    pair = tt_sov_bases(family, xyz)
    n = params.sites
    one_flat = flat_index((1,) * n)
    zero_flat = flat_index((0,) * n)
    gen = np.random.default_rng(5)
    checked = 0
    _, ambiguous, _ = zero_pattern(khat_cache, family.khat)
    assert not ambiguous
    for a in range(params.dim):
        col = family.right[:, a]
        col = col / (pair.left[one_flat] @ col)
        row = family.left[a]
        row = row / (row @ pair.right[:, zero_flat])
        # norm identity transfers verbatim
        want = norm_determinant(family.khat, a, kp)
        assert abs((row @ col) - want) <= 1e-7 * abs(want)
        for _ in range(2):
            alpha = SeparateState.random(gen, n)
            det_val = scalar_product_determinant(alpha, family.khat, a, kp)
            direct = np.sum(alpha.coordinates() * (pair.left @ col) / diag_values(kp))
            assert abs(det_val - direct) <= 1e-7 * abs(direct)
            checked += 1
    assert checked == 2 * params.dim


def test_build_tt_rejects_mismatched_chain(chain2):
    params, _, cache, _ = chain2
    other = ModelParams(
        params.sites, params.eta, tuple(x + 0.25 for x in params.xi), params.twist
    )
    khat_cache = TransferCache(other.with_twist(make_khat(params.twist)))
    with pytest.raises(ValueError, match="matching"):
        build_tt(cache, khat_cache.params, eigenstates(khat_cache, (1.0, 1.0, 1.0)))
