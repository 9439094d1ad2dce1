import dataclasses
import itertools
import re
from collections import Counter

import numpy as np
import pytest

from sovlab import det0_spectrum, suites
from sovlab.det0_spectrum import (
    ZERO_THETA,
    SeparateState,
    SpectralData,
    boundary_eigenstate_check,
    eigensolve_sov,
    interpolated_action_check,
    make_khat,
    norm_determinant,
    norm_direct,
    probe_decomposition,
    scalar_product_determinant,
    separate_overlap_direct,
    separated_coordinates,
    zero_pattern,
)
from sovlab.errors import AmbiguousPattern, DoubleShift, SpectrumCollision, SpectrumNotSimple
from sovlab.gl3_model import InterpolationWeights, ModelParams, TransferCache, TwistData
from sovlab.numkernel import rayleigh_quotients, rel_residual
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import dressed_pair, flat_index, label_digits, reference_vector_closed
from sovlab.sov_measure import diag_values, gram
from sovlab.suites import DEFAULT_TOLERANCES, Workspace, run_det0

from conftest import eigenstates, make_params
from oracles import (
    all_labels,
    eigensolve_oracle,
    label_action_oracle,
    pattern_figures_oracle,
    split_oracle,
)

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


def _orthogonality(cache, xyz):
    pair = dressed_pair(cache, xyz)
    report = gram(pair, cache.params)
    return report.max_offdiag_cosine, report.max_diag_rel_err


def test_ortho_suite_diagonal_twist():
    s = ParameterSampler(200)
    eta = s.shift()
    twist = TwistData.from_eigenvalues([1.0, 2.0, 0.0])
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    off, diag = _orthogonality(TransferCache(params), (1.0, 1.0, 1.0))
    assert off <= 1e-9
    assert diag <= 1e-8


def test_ortho_suite_random_n3(det0_chain3):
    params, xyz, cache, _ = det0_chain3
    off, diag = _orthogonality(cache, xyz)
    assert off <= 1e-9
    assert diag <= 1e-8


def test_ortho_suite_case_ii_supplied_jordan():
    """A 2-block twist with the repeated eigenvalue kept and the isolated one
    zeroed still produces orthogonal families."""
    s = ParameterSampler(205)
    eta = s.shift()
    w = s.invertible3()
    kj = np.array([[0.9 + 0.4j, 1, 0], [0, 0.9 + 0.4j, 0], [0, 0, 0.0]])
    twist = TwistData.from_jordan(w, kj)
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    off, diag = _orthogonality(TransferCache(params), s.reference3())
    assert off <= 1e-9
    assert diag <= 1e-8


def test_interpolated_actions(det0_chain2):
    _, _, cache, pair = det0_chain2
    lams = [crand() for _ in range(3)]
    # labels without digit 1 admit a shift-free T_2 action
    h = (0, 2)
    assert interpolated_action_check(cache, [(h, 2, "left")], pair, lams) <= 1e-9
    # the all-zeros label only picks up single-site raises under T_2
    h0 = (0, 0)
    assert interpolated_action_check(cache, [(h0, 2, "right")], pair, lams) <= 1e-9
    for h in ((1, 2), (0, 1), (2, 2)):
        for side in ("left", "right"):
            assert interpolated_action_check(cache, [(h, 1, side)], pair, lams) <= 1e-8


@pytest.mark.parametrize("chain", ["det0_chain2", "det0_chain3", "chain2", "chain3"])
def test_label_moves_keep_the_bits_of_the_four_builders(chain, request):
    """The move table sums the terms of the four written-out builders in their
    order, on every label, side and order; the invertible chains, where the
    expansion is not exact, make any changed term show in the residual."""
    params, _, cache, pair = request.getfixturevalue(chain)
    s = ParameterSampler(31)
    lams = [s.spectral_point(params.xi, params.eta) for _ in range(2)]
    for h in all_labels(params.sites):
        for which in (1, 2):
            for side in ("left", "right"):
                got = interpolated_action_check(cache, [(h, which, side)], pair, lams)
                assert got == label_action_oracle(cache, h, which, side, pair, lams)
    h = (0,) * params.sites
    for side, which in (("left", 3), ("up", 1)):
        with pytest.raises(ValueError):
            interpolated_action_check(cache, [(h, which, side)], pair, lams)


def test_boundary_eigenstates(det0_chain2):
    _, _, cache, pair = det0_chain2
    lams = [crand() for _ in range(5)]
    out = boundary_eigenstate_check(cache, pair, lams)
    for key in ("zeros_t2", "twos_t2", "zeros_t1", "right_family_t2"):
        resid, spread = out[key]
        assert resid <= 1e-9
        assert spread <= 1e-8  # the extracted constants are lambda independent


@pytest.mark.parametrize("chain", ["det0_chain2", "det0_chain3"])
def test_boundary_right_block_matches_column_loop(chain, request):
    """The {1,2}^N right labels, acted on as one block, give the residual of a
    loop over the columns with one GEMV each; the all-ones column is in the
    block, so swapping in a non-eigenvector there is seen."""
    params, _, cache, pair = request.getfixturevalue(chain)
    lams = [crand() for _ in range(5)]
    w = InterpolationWeights(params)
    loop = 0.0
    for digits in itertools.product((1, 2), repeat=params.sites):
        col = pair.right[:, flat_index(digits)]
        for lam in lams:
            acted = cache.t2(lam) @ col
            ref = w.d(lam - params.eta) * w.d(lam + params.eta) * col
            j = int(np.argmax(np.abs(ref)))
            loop = max(loop, rel_residual(acted - acted[j] / ref[j] * ref, acted))
    got = boundary_eigenstate_check(cache, pair, lams)["right_family_t2"][0]
    assert 0 < loop <= 1e-9
    assert abs(got - loop) <= 1e-15
    right = pair.right.copy()
    right[:, flat_index((1,) * params.sites)] = pair.right[:, 0]
    broken = dataclasses.replace(pair, right=right)
    assert boundary_eigenstate_check(cache, broken, lams)["right_family_t2"][0] > 1e-3


def test_right_constants_must_not_depend_on_lambda(det0_chain2):
    """T_2 scaled by (1 + 1e-3 lam) on the right {1,2}^N members other than
    (2,...,2), which every checked co-vector annihilates, keeps every
    per-point residual and co-vector spread; only the right spread sees it."""
    params, _, cache, pair = det0_chain2
    digits = label_digits(params.sites)
    block = (digits != 0).all(axis=1) & (digits != 2).any(axis=1)
    cols, rows = pair.right[:, block], pair.left[block]
    proj = cols @ np.linalg.solve(rows @ cols, rows)

    class Scaled:
        def __init__(self):
            self.params = params

        def value(self, m, lam):
            t = cache.value(m, lam)
            return t @ (np.eye(params.dim) + 1e-3 * lam * proj) if m == 2 else t

    lams = [crand() for _ in range(5)]
    exact = boundary_eigenstate_check(cache, pair, lams)
    scaled = boundary_eigenstate_check(Scaled(), pair, lams)
    assert max(resid for resid, _ in scaled.values()) <= 1e-9
    for key in ("zeros_t2", "twos_t2", "zeros_t1"):
        assert scaled[key][1] <= 1e-8
    assert exact["right_family_t2"][1] <= 1e-8
    assert scaled["right_family_t2"][1] >= 1e-5


def test_det0_suite_assembles_each_point_once(monkeypatch):
    """The det0 suite reads each of its off-node T_m(lam) with one dense
    assembly: all label actions share it, and so do all boundary blocks."""
    from sovlab import gl3_model

    ws = Workspace("gl3", 3, 7)
    ws.khat()  # the companion's node matrices and pair
    assembled = Counter()
    real_transfer = gl3_model.transfer

    def transfer(params, m, lam):
        assembled[(m, complex(lam))] += 1
        return real_transfer(params, m, lam)

    monkeypatch.setattr(gl3_model, "transfer", transfer)
    assert run_det0(ws, DEFAULT_TOLERANCES["det0"]).passed
    # T_1 and T_2 at 3 action points and 5 boundary points
    assert len(assembled) == 16 and set(assembled.values()) == {1}


def test_det0_suite_gates_the_right_constant_spread(monkeypatch):
    """The det0 suite reports the right constant spread and fails on it."""
    tol = DEFAULT_TOLERANCES["det0"]
    res = run_det0(Workspace("gl3", 3, 7), tol)
    assert res.passed and 0 < res.details["right_constant_spread"] <= res.max_residual
    exact = det0_spectrum.boundary_eigenstate_check

    def spread_right(*args):
        out = exact(*args)
        out["right_family_t2"] = (out["right_family_t2"][0], 1e-3)
        return out

    monkeypatch.setattr(suites, "boundary_eigenstate_check", spread_right)
    res = run_det0(Workspace("gl3", 3, 7), tol)
    assert not res.passed and res.max_residual == res.details["right_constant_spread"] == 1e-3


def test_eigensolve_one_site_closed_form():
    """At one site T_1(lam) = (lam - xi) tr(K) + eta K, so the spectrum is a
    shifted copy of the twist spectrum."""
    params, xyz, _ = make_params(211, 1, invertible=False)
    cache = TransferCache(params)
    states = eigenstates(cache, xyz)
    lam0 = params.xi[0] + 13 / 7 * params.eta
    want = sorted(
        ((lam0 - params.xi[0]) * params.twist.trace_inv + params.eta * k
         for k in params.twist.eigenvalues),
        key=lambda z: (z.real, z.imag),
    )
    got = sorted(
        (u @ cache.t1(lam0) @ v) / (u @ v) for u, v in zip(states.left, states.right.T)
    )
    for w, g in zip(want, got):
        assert abs(w - g) <= 1e-10 * max(abs(w), 1)


def test_rayleigh_quotients_match_per_state_loop(det0_chain3):
    """The batched quotients equal (u M v) / (u v) state by state, on the
    stored eigenvectors, whose pairings u v are far from one; so do the node
    eigenvalues eigensolve_sov stores."""
    params, xyz, cache, pair = det0_chain3
    states = eigenstates(cache, xyz)
    rows, cols = states.left, states.right
    pairings = np.einsum("ij,ji->i", rows, cols)
    assert np.abs(pairings - 1).max() > 1e-3
    lam = params.xi[1] + 0.37 - 0.21j

    def loop(m):
        return np.array([(u @ m @ v) / (u @ v) for u, v in zip(rows, cols.T)])
    for m in (cache.t1(lam), cache.t2(lam), cache.t2(params.xi[2] - params.eta)):
        assert rel_residual(rayleigh_quotients(rows, m, cols) - loop(m), loop(m)) <= 1e-13
    for a, x in enumerate(params.xi):
        for stored, m in (("t1_xi", cache.t1(x)), ("t2_shift", cache.t2(x - params.eta))):
            got = getattr(states, stored)[:, a]
            assert rel_residual(got - loop(m), loop(m)) <= 1e-13


def test_eigensolve_simple_spectrum_and_factorization(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    assert len(states) == 9
    assert states.factorization_residual.max() <= 1e-7


def test_left_right_eigen_gram_diagonal(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    g = states.left @ states.right
    off = g - np.diag(np.diagonal(g))
    assert np.abs(off).max() <= 1e-9 * np.abs(g).max()


def test_right_side_coefficient_pattern(det0_chain2):
    """Left eigen-co-vectors expand with T_2-at-node / T_1-at-node exponents."""
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    for s in range(4):
        coords = states.left[s] @ pair.right  # row of <t|h>
        scale = np.abs(coords).max()
        for h in all_labels(params.sites):
            pred = np.prod(
                [
                    states.t2_xi[s, a] if d == 1 else (states.t1_xi[s, a] if d == 2 else 1.0)
                    for a, d in enumerate(h)
                ]
            )
            norm = coords[flat_index((0,) * params.sites)]
            assert abs(coords[flat_index(h)] - pred * norm) <= 1e-7 * scale


def test_zero_pattern_properties(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    kept, excluded, figures = zero_pattern(cache, states)
    assert len(kept) == len(states) and excluded == []
    assert figures["pattern_zero_residual"] <= 1e-9
    assert figures["pattern_fusion_residual"] <= 1e-9
    assert figures["pattern_t2_closed_form_residual"] <= 1e-7
    assert figures["pattern_nonzero_floor"] > 1e-3
    # the extreme boundary states show up as full and empty splits
    splits = [len(states.split(s)[0]) for s in range(len(states))]
    assert 0 in splits and params.sites in splits


def test_zero_pattern_all_a_sites_non_diagonal_twist():
    """With msize = N every t_2(xi_a - eta) is a zero, their maximum too; the
    zero residual must stay small and not read noise over noise."""
    params, xyz, _ = make_params(22, 2, invertible=False, wild_w=True)
    assert np.abs(params.twist.w - np.diag(np.diag(params.twist.w))).max() > 0.1
    cache = TransferCache(params)
    states = eigenstates(cache, xyz)
    full = [s for s in range(len(states)) if len(states.split(s)[0]) == params.sites]
    kept, ambiguous, figures = zero_pattern(cache, states.take(full))
    assert full and kept.index.tolist() == full and not ambiguous
    assert figures["pattern_zero_residual"] <= 1e-9


def _ambiguous(states, rows):
    """The table ``states`` with t_1(xi_1) of the states ``rows`` moved inside
    the decision band."""
    t1_xi = states.t1_xi.copy()
    t1_xi[rows, 0] = 1e-6 * np.abs(states.t1_shift[rows]).max(axis=-1)
    return dataclasses.replace(states, t1_xi=t1_xi)


def test_site_masks_match_the_per_state_rule(det0_chain3):
    """The one masked pass decides every state as the per-state rule does,
    with t_1(xi_1) planted below, on and above both band edges, and refuses
    each undecided state with the rule's reason."""
    params, xyz, cache, pair = det0_chain3
    states = eigenstates(cache, xyz)
    factors = np.resize([0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 20.0], len(states))
    t1_xi = states.t1_xi.copy()
    t1_xi[:, 0] = factors * ZERO_THETA * np.abs(states.t1_shift).max(axis=1)
    planted = dataclasses.replace(states, t1_xi=t1_xi)
    _, excluded, _ = zero_pattern(cache, planted)
    refused = {index: str(exc) for index, exc in excluded}
    decided = 0
    for row in range(len(planted)):
        want = split_oracle(planted.t1_xi[row], planted.t1_shift[row])
        if isinstance(want, str):
            assert refused.pop(row) == want
            with pytest.raises(AmbiguousPattern, match=re.escape(want)):
                planted.split(row)
        else:
            assert planted.split(row) == want
            decided += 1
    assert not refused and 0 < decided < len(planted)


def test_zero_pattern_ambiguous():
    params, xyz, _ = make_params(221, 2, invertible=False)
    cache = TransferCache(params)
    st = _ambiguous(eigenstates(cache, xyz).take([0]), 0)
    kept, excluded, figures = zero_pattern(cache, st)
    assert len(kept) == 0 and len(excluded) == 1 and excluded[0][0] == 0 and figures == {}
    assert isinstance(excluded[0][1], AmbiguousPattern)
    with pytest.raises(AmbiguousPattern):
        st.split(0)


def test_zero_pattern_leaves_its_states_unchanged(det0_chain2):
    """The splits are read off the table's own eigenvalues: zero_pattern sets
    nothing on the table it is given, and the table's fields cannot be
    assigned nor its arrays written."""
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    before = dict(vars(states))
    kept, _, _ = zero_pattern(cache, states)
    assert kept.index.tolist() == states.index.tolist()
    assert vars(states).keys() - before.keys() <= {"site_masks"}
    assert all(vars(states)[k] is v for k, v in before.items())
    for name, value in (("t1_xi", states.t1_xi.copy()), ("factorization_residual", 0.0),
                        ("index", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(states, name, value)
    for arr in (states.t1_xi, states.right, states.site_masks[0], kept.left):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


def _closed_form_residual(states, row, params, cache):
    """Reference for the closed-form t_2 check of state ``row``: one
    single-state Rayleigh quotient and one sequential root product at each of
    the four extra points."""
    w = InterpolationWeights(params)
    a_sites, b_sites = states.split(row)
    worst = 0.0
    for k in range(4):
        lam = params.xi[0] + (3 + k) * params.eta * (1 + 0.2j)
        pred = params.twist.second_inv * w.d(lam - params.eta)
        for a in a_sites:
            pred *= lam - (params.xi[a] - params.eta)
        for b in b_sites:
            pred *= lam - params.xi[b]
        actual = rayleigh_quotients(states.left[row][None], cache.t2(lam),
                                    states.right[:, row][:, None])[0]
        worst = max(worst, rel_residual(actual - pred, actual))
    return worst


def test_zero_patterns_match_one_state_calls(det0_chain3):
    """A batch of every state gives what batches of one state give: same
    splits and exclusion, the pointwise figures folded from the one-state
    ones, and a closed-form residual within rounding of the per-state
    reference."""
    params, xyz, cache, pair = det0_chain3
    batch = _ambiguous(eigenstates(cache, xyz), 2)
    kept, excluded, figures = zero_pattern(cache, batch)
    assert [index for index, _ in excluded] == [2]
    assert kept.index.tolist() == [i for i in range(params.dim) if i != 2]
    alone, refused, _ = zero_pattern(cache, batch.take([2]))
    assert len(alone) == 0 and isinstance(refused[0][1], AmbiguousPattern)
    assert str(refused[0][1]) == str(excluded[0][1])
    per_state = []
    for row in range(len(kept)):
        alone, refused, one = zero_pattern(cache, kept.take([row]))
        assert alone.index.tolist() == [kept.index[row]] and refused == []
        per_state.append(one)
    for key in ("pattern_zero_residual", "pattern_fusion_residual"):
        assert figures[key] == max(one[key] for one in per_state), key
    assert figures["pattern_nonzero_floor"] == min(
        one["pattern_nonzero_floor"] for one in per_state)
    closed = figures["pattern_t2_closed_form_residual"]
    reference = max(_closed_form_residual(kept, row, params, cache) for row in range(len(kept)))
    assert abs(closed - reference) <= 1e-12


@pytest.mark.parametrize("chain", ["det0_chain2", "det0_chain3"])
def test_pattern_figures_match_the_per_state_loop(chain, request):
    """The array figures agree with the pointwise checks written out per
    state and site to a few ulps of their scales: complex products and
    magnitudes, vectorized here and scalar in the loop, may round apart by
    an ulp of an operand, and each figure is relative to a scale of its
    operands."""
    params, xyz, cache, pair = request.getfixturevalue(chain)
    kept, _, figures = zero_pattern(cache, eigenstates(cache, xyz))
    oracle = pattern_figures_oracle(cache, kept)
    assert figures.keys() == oracle.keys()
    for key, value in figures.items():
        assert abs(value - oracle[key]) <= 4 * np.finfo(float).eps, key


@pytest.mark.parametrize("chain", ["det0_chain2", "det0_chain3"])
def test_eigensolve_matches_the_per_state_products(chain, request):
    """One GEMM per side gives each state's normalized vectors and
    factorization residual as the per-state GEMVs do, up to rounding."""
    params, xyz, cache, pair = request.getfixturevalue(chain)
    dec = probe_decomposition(cache)
    states = eigensolve_sov(cache, pair, dec)
    oracle = eigensolve_oracle(pair, dec, states.t1_xi, states.t2_shift)
    assert len(states) == len(oracle) == params.dim
    for s, (v, u, resid) in enumerate(oracle):
        assert rel_residual(states.right[:, s] - v, v) <= 1e-13
        assert rel_residual(states.left[s] - u, u) <= 1e-13
        assert abs(states.factorization_residual[s] - resid) <= 1e-13


def test_label_products_match_per_label_loops(det0_chain3):
    """Vector products per site against scalar products per label; the
    rounding may differ in the last bit."""
    params = det0_chain3[0]
    rng = np.random.default_rng(4)
    alpha = SeparateState.random(rng, params.sites)
    t1_xi, t2_shift = alpha.coeffs[:, 0], alpha.coeffs[:, 1]
    labels = all_labels(params.sites)
    coordinates = [np.prod([alpha.coeffs[a, d] for a, d in enumerate(h)])
                   for h in labels]
    assert np.allclose(alpha.coordinates(), coordinates, rtol=1e-15, atol=0)
    separated = []
    for h in labels:
        pred = 1.0 + 0j
        for a, d in enumerate(h):
            if d == 0:
                pred *= t2_shift[a]
            elif d == 2:
                pred *= t1_xi[a]
        separated.append(pred)
    assert np.allclose(separated_coordinates(t1_xi, t2_shift), separated, rtol=1e-15, atol=0)


def test_double_shift_is_refused_before_dividing():
    """xi_1 - xi_2 = 2 eta makes d(xi_1 - 2 eta) zero: the closed reference
    vector, the diagonal couplings and both determinant overlaps refuse the
    chain with the two sites named, before any division."""
    params = ModelParams(2, 1.0, (2.0, 0.0), TwistData.from_eigenvalues([1.0, 2.0, 0.0]))
    ones = np.ones((1, params.sites), dtype=complex)
    states = SpectralData(np.arange(1), np.ones((params.dim, 1)), np.ones((1, params.dim)),
                          ones, ones, ones, ones, np.zeros(1))
    alpha = SeparateState(np.ones((params.sites, 3)))
    calls = [lambda: reference_vector_closed((1.0, 2.0, 3.0), params),
             lambda: diag_values(params),
             lambda: norm_determinant(states, 0, params),
             lambda: scalar_product_determinant(alpha, states, 0, params)]
    for call in calls:
        with pytest.raises(DoubleShift, match="sites 1 and 2 have xi_1 - xi_2 = 2 eta"):
            call()


def test_scalar_product_requires_pattern(det0_chain2):
    """Both determinant overlaps read the state's split, which an eigenvalue
    inside the decision band leaves undecided."""
    params, xyz, cache, pair = det0_chain2
    states = _ambiguous(eigenstates(cache, xyz), 0)
    alpha = SeparateState.random(np.random.default_rng(1), params.sites)
    with pytest.raises(AmbiguousPattern):
        scalar_product_determinant(alpha, states, 0, params)
    with pytest.raises(AmbiguousPattern):
        norm_determinant(states, 0, params)


def test_scalar_products_against_direct(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    gen = np.random.default_rng(7)
    _, ambiguous, _ = zero_pattern(cache, states)
    assert not ambiguous
    for _ in range(20):
        row = int(gen.integers(0, len(states)))
        alpha = SeparateState.random(gen, params.sites)
        det_val = scalar_product_determinant(alpha, states, row, params)
        direct = separate_overlap_direct(alpha, states, row, params)
        assert abs(det_val - direct) <= 1e-7 * abs(direct)


def test_scalar_product_vanishing_site_column(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    _, ambiguous, _ = zero_pattern(cache, states.take([1]))
    assert not ambiguous
    coeffs = np.ones((params.sites, 3), dtype=complex)
    coeffs[0] = 0.0
    alpha = SeparateState(coeffs)
    assert abs(scalar_product_determinant(alpha, states, 1, params)) <= 1e-12


def test_scalar_product_on_own_coefficients_is_norm(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    _, ambiguous, _ = zero_pattern(cache, states.take(np.arange(4)))
    assert not ambiguous
    for row in range(4):
        # the co-vector pattern (1, t_2(xi_a), t_1(xi_a)) reproduces the eigenstate
        t1_xi, t2_xi = states.t1_xi[row], states.t2_xi[row]
        alpha = SeparateState(np.stack([np.ones_like(t1_xi), t2_xi, t1_xi], axis=1))
        val = scalar_product_determinant(alpha, states, row, params)
        want = norm_determinant(states, row, params)
        assert abs(val - want) <= 1e-9 * abs(want)


def test_norms_one_site():
    params, xyz, _ = make_params(225, 1, invertible=False)
    cache = TransferCache(params)
    states = eigenstates(cache, xyz)
    _, ambiguous, _ = zero_pattern(cache, states)
    assert not ambiguous
    for row in range(len(states)):
        nd = norm_determinant(states, row, params)
        assert abs(nd - norm_direct(states, row)) <= 1e-10 * abs(nd)


def test_norms_all_states_two_sites(det0_chain2):
    params, xyz, cache, pair = det0_chain2
    states = eigenstates(cache, xyz)
    _, ambiguous, _ = zero_pattern(cache, states)
    assert not ambiguous
    for row in range(len(states)):
        nd = norm_determinant(states, row, params)
        direct = norm_direct(states, row)
        assert abs(nd - direct) <= 1e-7 * abs(direct)
        assert abs(nd) > 1e-10  # simplicity forbids degenerate pairings
