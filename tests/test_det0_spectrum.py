import dataclasses
import itertools

import numpy as np
import pytest

from sovlab import det0_spectrum
from sovlab.det0_spectrum import (
    SeparateState,
    boundary_eigenstate_check,
    eigensolve_sov,
    interpolated_action_check,
    make_khat,
    norm_determinant,
    norm_direct,
    ortho_suite_det0,
    scalar_product_determinant,
    separate_overlap_direct,
    separated_coordinates,
    zero_pattern,
)
from sovlab.errors import (
    AmbiguousPattern,
    PatternMissing,
    SpectrumCollision,
    SpectrumNotSimple,
)
from sovlab.gl3_model import InterpolationWeights, ModelParams, TransferCache, TwistData
from sovlab.numkernel import rayleigh_quotients, rel_residual
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import TernaryIndex, dressed_pair

from conftest import make_params

rng = np.random.default_rng(2)


def crand():
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def test_make_khat_zeroes_smallest():
    twist = TwistData.from_eigenvalues([1.0, 2.0, 3.0])
    hat = make_khat(twist)
    assert hat.eigenvalues == (0.0, 2.0, 3.0)


def test_make_khat_keeps_simplicity():
    twist = TwistData.from_eigenvalues([2.0, 2.0 + 0.5j, 5.0])
    hat = make_khat(twist)
    assert 0.0 in hat.eigenvalues


def test_make_khat_collision():
    twist = TwistData.from_eigenvalues([1e-7, 3e-7, 3.0])
    with pytest.raises(SpectrumCollision):
        make_khat(twist)


def test_make_khat_requires_case_i():
    kj = np.array([[2.0, 1, 0], [0, 2.0, 0], [0, 0, 5.0]])
    twist = TwistData.from_jordan(np.eye(3), kj)
    with pytest.raises(SpectrumNotSimple):
        make_khat(twist)


def test_ortho_suite_diagonal_twist():
    s = ParameterSampler(200)
    eta = s.shift()
    twist = TwistData.from_eigenvalues([1.0, 2.0, 0.0])
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    out = ortho_suite_det0(params, (1.0, 1.0, 1.0))
    assert out["offdiag_cosine"] <= 1e-9
    assert out["diag_rel_err"] <= 1e-8


def test_ortho_suite_random_n3(det0_chain3):
    params, xyz, cache, _ = det0_chain3
    out = ortho_suite_det0(params, xyz, cache=cache)
    assert out["offdiag_cosine"] <= 1e-9
    assert out["diag_rel_err"] <= 1e-8


def test_ortho_suite_case_ii_supplied_jordan():
    """A 2-block twist with the repeated eigenvalue kept and the isolated one
    zeroed still produces orthogonal families."""
    s = ParameterSampler(205)
    eta = s.shift()
    w = s.invertible3()
    kj = np.array([[0.9 + 0.4j, 1, 0], [0, 0.9 + 0.4j, 0], [0, 0, 0.0]])
    twist = TwistData.from_jordan(w, kj)
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    out = ortho_suite_det0(params, s.reference3())
    assert out["offdiag_cosine"] <= 1e-9
    assert out["diag_rel_err"] <= 1e-8


def test_ortho_suite_rejects_invertible(chain2):
    params, xyz, _, _ = chain2
    with pytest.raises(ValueError):
        ortho_suite_det0(params, xyz)


def test_interpolated_actions(det0_chain2):
    params, xyz, cache, _ = det0_chain2
    lams = [crand() for _ in range(3)]
    # labels without digit 1 admit a shift-free T_2 action
    h = TernaryIndex((0, 2))
    assert interpolated_action_check(params, h, 2, "left", xyz, lams, cache) <= 1e-9
    # the all-zeros label only picks up single-site raises under T_2
    h0 = TernaryIndex((0, 0))
    assert interpolated_action_check(params, h0, 2, "right", xyz, lams, cache) <= 1e-9
    for digits in ((1, 2), (0, 1), (2, 2)):
        h = TernaryIndex(digits)
        for side in ("left", "right"):
            assert interpolated_action_check(params, h, 1, side, xyz, lams, cache) <= 1e-8


def test_boundary_eigenstates(det0_chain2):
    params, xyz, cache, _ = det0_chain2
    lams = [crand() for _ in range(5)]
    out = boundary_eigenstate_check(params, xyz, lams, cache)
    for key in ("zeros_t2", "twos_t2", "zeros_t1"):
        resid, const, spread = out[key]
        assert resid <= 1e-9
        assert spread <= 1e-8  # the extracted constant is lambda independent
    assert out["right_family_t2"] <= 1e-9


@pytest.mark.parametrize("chain", ["det0_chain2", "det0_chain3"])
def test_boundary_right_block_matches_column_loop(chain, request, monkeypatch):
    """The {1,2}^N right labels, acted on as one block, give the residual of a
    loop over the columns with one GEMV each; the all-ones column is in the
    block, so swapping in a non-eigenvector there is seen."""
    params, xyz, cache, pair = request.getfixturevalue(chain)
    lams = [crand() for _ in range(5)]
    w = InterpolationWeights(params)
    loop = 0.0
    for digits in itertools.product((1, 2), repeat=params.sites):
        col = pair.right[:, TernaryIndex(digits).flat]
        for lam in lams:
            acted = cache.t2(lam) @ col
            ref = w.d(lam - params.eta) * w.d(lam + params.eta) * col
            j = int(np.argmax(np.abs(ref)))
            loop = max(loop, rel_residual(acted - acted[j] / ref[j] * ref, acted))
    got = boundary_eigenstate_check(params, xyz, lams, cache)["right_family_t2"]
    assert 0 < loop <= 1e-9
    assert abs(got - loop) <= 1e-15
    right = pair.right.copy()
    right[:, TernaryIndex((1,) * params.sites).flat] = pair.right[:, 0]
    broken = dataclasses.replace(pair, right=right)
    monkeypatch.setattr(det0_spectrum, "dressed_pair", lambda *args: broken)
    assert boundary_eigenstate_check(params, xyz, lams, cache)["right_family_t2"] > 1e-3


def test_eigensolve_one_site_closed_form():
    """At one site T_1(lam) = (lam - xi) tr(K) + eta K, so the spectrum is a
    shifted copy of the twist spectrum."""
    params, xyz, _ = make_params(211, 1, invertible=False)
    states, _, cache = eigensolve_sov(params, xyz)
    lam0 = params.xi[0] + 13 / 7 * params.eta
    want = sorted(
        ((lam0 - params.xi[0]) * params.twist.trace_inv + params.eta * k
         for k in params.twist.eigenvalues),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(
        (st.left @ cache.t1(lam0) @ st.right) / (st.left @ st.right) for st in states
    )
    for w, g in zip(want, got):
        assert abs(w - g) <= 1e-10 * max(abs(w), 1)


def test_rayleigh_quotients_match_per_state_loop(det0_chain3):
    """The batched quotients equal (u M v) / (u v) state by state, on the
    stored eigenvectors, whose pairings u v are far from one; so do the node
    eigenvalues eigensolve_sov stores."""
    params, xyz, cache, pair = det0_chain3
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    rows = np.stack([st.left for st in states])
    cols = np.stack([st.right for st in states], axis=1)
    pairings = np.einsum("ij,ji->i", rows, cols)
    assert np.abs(pairings - 1).max() > 1e-3
    lam = params.xi[1] + 0.37 - 0.21j
    for m in (cache.t1(lam), cache.t2(lam), cache.t2(params.xi[2] - params.eta)):
        loop = np.array([(st.left @ m @ st.right) / (st.left @ st.right) for st in states])
        assert rel_residual(rayleigh_quotients(rows, m, cols) - loop, loop) <= 1e-13
    for a, x in enumerate(params.xi):
        for stored, m in (("t1_xi", cache.t1(x)), ("t2_shift", cache.t2(x - params.eta))):
            loop = np.array([(st.left @ m @ st.right) / (st.left @ st.right) for st in states])
            got = np.array([getattr(st, stored)[a] for st in states])
            assert rel_residual(got - loop, loop) <= 1e-13


def test_eigensolve_simple_spectrum_and_factorization(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    assert len(states) == 9
    assert max(st.factorization_residual for st in states) <= 1e-7


def test_left_right_eigen_gram_diagonal(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    us = np.array([st.left for st in states])
    vs = np.array([st.right for st in states]).T
    g = us @ vs
    off = g - np.diag(np.diagonal(g))
    assert np.abs(off).max() <= 1e-9 * np.abs(g).max()


def test_right_side_coefficient_pattern(det0_chain2):
    """Left eigen-co-vectors expand with T_2-at-node / T_1-at-node exponents."""
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    for st in states[:4]:
        coords = st.left @ pair.right  # row of <t|h>
        scale = np.abs(coords).max()
        for h in TernaryIndex.all(params.sites):
            pred = np.prod(
                [
                    st.t2_xi[a] if d == 1 else (st.t1_xi[a] if d == 2 else 1.0)
                    for a, d in enumerate(h.digits)
                ]
            )
            norm = coords[TernaryIndex((0,) * params.sites).flat]
            assert abs(coords[h.flat] - pred * norm) <= 1e-7 * scale


def test_zero_pattern_properties(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    splits = []
    for st in states:
        perm, msize = zero_pattern(st, params, cache)
        splits.append(msize)
        d = st.pattern_diagnostics
        assert d["zero_residual"] <= 1e-9
        assert d["fusion_residual"] <= 1e-9
        assert d["t2_closed_form_residual"] <= 1e-7
        assert d["nonzero_floor"] > 1e-3
    # the extreme boundary states show up as full and empty splits
    assert 0 in splits and params.sites in splits


def test_zero_pattern_all_a_sites_non_diagonal_twist():
    """With msize = N every t_2(xi_a - eta) is a zero, their maximum too; the
    zero residual must stay small and not read noise over noise."""
    params, xyz, _ = make_params(22, 2, invertible=False, wild_w=True)
    assert np.abs(params.twist.w - np.diag(np.diag(params.twist.w))).max() > 0.1
    states, _, cache = eigensolve_sov(params, xyz)
    full = []
    for st in states:
        _, msize = zero_pattern(st, params, cache)
        if msize == params.sites:
            full.append(st.pattern_diagnostics["zero_residual"])
    assert full and max(full) <= 1e-9


def test_zero_pattern_ambiguous():
    params, xyz, _ = make_params(221, 2, invertible=False)
    states, _, cache = eigensolve_sov(params, xyz)
    st = states[0]
    st.t1_xi = st.t1_xi.copy()
    st.t1_xi[0] = 1e-6 * np.abs(st.t1_shift).max()  # inside the decision band
    with pytest.raises(AmbiguousPattern):
        zero_pattern(st, params, cache)


def test_label_products_match_per_label_loops(det0_chain3):
    """Vector products per site against scalar products per label; the
    rounding may differ in the last bit."""
    params = det0_chain3[0]
    rng = np.random.default_rng(4)
    alpha = SeparateState.random(rng, params.sites)
    t1_xi, t2_shift = alpha.coeffs[:, 0], alpha.coeffs[:, 1]
    labels = list(TernaryIndex.all(params.sites))
    assert np.allclose(alpha.coordinates(), [alpha.coordinate(h) for h in labels],
                       rtol=1e-15, atol=0)
    separated = []
    for h in labels:
        pred = 1.0 + 0j
        for a, d in enumerate(h.digits):
            if d == 0:
                pred *= t2_shift[a]
            elif d == 2:
                pred *= t1_xi[a]
        separated.append(pred)
    assert np.allclose(separated_coordinates(t1_xi, t2_shift), separated, rtol=1e-15, atol=0)


def test_scalar_product_requires_pattern(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    alpha = SeparateState.random(np.random.default_rng(1), params.sites)
    with pytest.raises(PatternMissing):
        scalar_product_determinant(alpha, states[0], params)


def test_scalar_products_against_direct(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    gen = np.random.default_rng(7)
    for st in states:
        zero_pattern(st, params, cache)
    for _ in range(20):
        st = states[int(gen.integers(0, len(states)))]
        alpha = SeparateState.random(gen, params.sites)
        det_val = scalar_product_determinant(alpha, st, params)
        direct = separate_overlap_direct(alpha, st, params)
        assert abs(det_val - direct) <= 1e-7 * abs(direct)


def test_scalar_product_vanishing_site_column(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    st = states[1]
    zero_pattern(st, params, cache)
    coeffs = np.ones((params.sites, 3), dtype=complex)
    coeffs[0] = 0.0
    alpha = SeparateState(coeffs)
    assert abs(scalar_product_determinant(alpha, st, params)) <= 1e-12


def test_scalar_product_on_own_coefficients_is_norm(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    for st in states[:4]:
        zero_pattern(st, params, cache)
        alpha = SeparateState.from_eigenstate(st, side="covector")
        val = scalar_product_determinant(alpha, st, params)
        want = norm_determinant(st, params, cache)
        assert abs(val - want) <= 1e-9 * abs(want)


def test_norms_one_site():
    params, xyz, _ = make_params(225, 1, invertible=False)
    states, _, cache = eigensolve_sov(params, xyz)
    for st in states:
        zero_pattern(st, params, cache)
        nd = norm_determinant(st, params, cache)
        assert abs(nd - norm_direct(st)) <= 1e-10 * abs(nd)


def test_norms_all_states_two_sites(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states, _, _ = eigensolve_sov(params, xyz, pair=pair, cache=cache)
    for st in states:
        zero_pattern(st, params, cache)
        nd = norm_determinant(st, params, cache)
        direct = norm_direct(st)
        assert abs(nd - direct) <= 1e-7 * abs(direct)
        assert abs(nd) > 1e-10  # simplicity forbids degenerate pairings
