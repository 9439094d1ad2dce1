import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sovlab import sov_bases
from sovlab.errors import DegenerateReference, SingularBasis
from sovlab.gl2_model import gl2_bases, reference_states
from sovlab.gl3_model import (InterpolationWeights, ModelParams, TransferCache, TwistData,
                              quantum_determinant)
from sovlab.numkernel import rel_residual
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import (
    SovBasisPair,
    basis_tree,
    dressed_pair,
    flat_index,
    label_digits,
    label_products,
    power_pair,
    reference_covector,
    reference_vector_closed,
    reference_vector_solve,
    tensor_product_state,
)
from sovlab.suites import DEFAULT_TOLERANCES, Workspace, run_bases

from conftest import make_gl2, make_params
from oracles import (all_labels, digit_ones, family_extended, pair_substitution,
                     row_by_row_family, with_digit)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3**5 - 1))
def test_ternary_roundtrip(flat):
    row = label_digits(5)[flat]
    assert flat_index(row) == flat
    assert flat_index(tuple(row.tolist())) == flat


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_label_digits_match_ternary_index(sites):
    digits = label_digits(sites)
    assert digits.shape == (3**sites, sites) and digits.dtype == np.int8
    assert not digits.flags.writeable
    assert [flat_index(row) for row in digits] == list(range(3**sites))
    assert label_digits(sites) is digits


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_label_digits_base_two_match_bit_shifts(sites):
    digits = label_digits(sites, 2)
    flat = np.arange(2**sites)
    want = (flat[:, None] >> np.arange(sites)) & 1
    assert digits.shape == (2**sites, sites) and digits.dtype == np.int8
    assert not digits.flags.writeable
    np.testing.assert_array_equal(digits, want)
    assert label_digits(sites, 2) is digits


def test_label_products_base_two_match_per_label_loop():
    rng = np.random.default_rng(8)
    sites = 4
    factors = rng.standard_normal((sites, 2)) + 1j * rng.standard_normal((sites, 2))
    want = []
    for flat in range(2**sites):
        prod = 1.0 + 0j
        for a in range(sites):
            prod *= factors[a, (flat >> a) & 1]
        want.append(prod)
    got = label_products(factors)
    assert got.shape == (2**sites,)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def _gaussian_integers(rng, *shape):
    return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)


def _step_shapes(variant, side, t1, t2):
    """The per-site step lists of :func:`transfer_family` on the node
    matrices ``t1[a]`` and ``t2[a]``: T_1 powers, or the dressed digits."""
    if variant == "powers":
        return [([], [a], [a, a]) for a in t1]
    if side == "left":
        return [([b], [], [a]) for a, b in zip(t1, t2)]
    return [([], [b], [a]) for a, b in zip(t1, t2)]


@pytest.mark.parametrize("variant", ["dressed", "powers"])
def test_basis_builders_equal_row_by_row_loop(variant):
    """On Gaussian-integer references and step matrices (parts in [-3, 3],
    N = 3) every product is exact in float64 whatever the summation order,
    so the tree equals the per-label loop bit for bit: label order, digit
    mapping and side are pinned."""
    rng = np.random.default_rng(5)
    dim = 27
    t1, t2 = _gaussian_integers(rng, 3, dim, dim), _gaussian_integers(rng, 3, dim, dim)
    for side in ("left", "right"):
        ref = _gaussian_integers(rng, dim)
        steps = _step_shapes(variant, side, t1, t2)
        got = basis_tree(ref, steps, side)
        assert np.array_equal(got, row_by_row_family(ref, steps, side))
        assert got.flags.c_contiguous


def _member_errors(got, want, side):
    """Per-member 2-norm error of ``got`` against the extended ``want``,
    relative to the member's norm."""
    axis = 1 if side == "left" else 0
    want = want.astype(complex)
    return np.linalg.norm(got - want, axis=axis) / np.linalg.norm(want, axis=axis)


def test_basis_tree_rounds_no_worse_than_the_row_by_row_loop():
    """Against the same steps evaluated in extended precision, over N = 2..5
    on seeds 1 and 7: the dressed and the powers families of
    :func:`transfer_family` on both sides, and :func:`gl2_bases`.  Over the
    whole set, the worst and the mean per-member error of the tree are no
    larger than 1.25 times those of the per-label loop.  The steps are
    written out here, so a wrong digit mapping in the library fails too."""
    tree, loop = [], []

    def compare(got, ref, steps, side):
        want = family_extended(ref, steps, side)
        tree.extend(_member_errors(got, want, side))
        loop.extend(_member_errors(row_by_row_family(ref, steps, side), want, side))

    for seed in (1, 7):
        for sites in range(2, 6):
            params, xyz, s = make_params(seed, sites)
            cache = TransferCache(params)
            t1 = [cache.t1(x) for x in params.xi]
            t2 = {"left": [cache.t2(x - params.eta) for x in params.xi],
                  "right": [cache.t2(x) for x in params.xi]}
            for pair in (dressed_pair(cache, xyz), power_pair(cache, xyz, s.reference3())):
                compare(pair.left, pair.ref_covector,
                        _step_shapes(pair.variant, "left", t1, t2["left"]), "left")
                compare(pair.right, pair.ref_vector,
                        _step_shapes(pair.variant, "right", t1, t2["right"]), "right")
            gl2, ref = make_gl2(seed, sites)
            a_xi = InterpolationWeights(gl2.params).a
            row0, ones_col, _ = reference_states(gl2, ref)
            left, right, _ = gl2_bases(gl2, ref)
            compare(left, row0, [([], [gl2.t1(x) / a_xi(x)]) for x in gl2.params.xi], "left")
            compare(right, ones_col, [([gl2.t1(x - gl2.params.eta) / a_xi(x)], [])
                                      for x in gl2.params.xi], "right")
    assert len(tree) == 2 * 4 * (9 + 27 + 81 + 243) + 2 * 2 * (4 + 8 + 16 + 32)
    assert max(tree) <= 1.25 * max(loop)
    assert np.mean(tree) <= 1.25 * np.mean(loop)


def test_basis_tree_working_set_is_two_dense_matrices():
    """One N = 5 family on prebuilt node matrices holds its last level, the
    level before and one digit's block temporaries, and on the right the
    columns' contiguous copy: its traced peak stays below 2.5 dim^2
    entries."""
    params, xyz, _ = make_params(7, 5)
    cache = TransferCache(params)
    t1 = [cache.t1(x) for x in params.xi]
    t2 = {"left": [cache.t2(x - params.eta) for x in params.xi],
          "right": [cache.t2(x) for x in params.xi]}
    refs = {"left": reference_covector(xyz, params), "right": reference_vector_closed(xyz, params)}
    entry, slack = np.dtype(complex).itemsize, 64 * 1024  # slack: step lists, bookkeeping
    bound = entry * 2.5 * params.dim**2 + slack
    for variant in ("dressed", "powers"):
        for side, ref in refs.items():
            steps = _step_shapes(variant, side, t1, t2[side])
            tracemalloc.start()
            try:
                basis_tree(ref, steps, side)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound


def test_ternary_combinatorics():
    h = (1, 0, 1, 2)
    assert digit_ones(h) == (0, 2)
    assert with_digit(h, 1, 2) == (1, 2, 1, 2)
    assert pair_substitution(h, (0,), (2,)) == (0, 0, 2, 2)


def test_flat_order_site_one_fastest():
    seen = all_labels(2)
    assert seen[0] == (0, 0) and seen[1] == (1, 0) and seen[3] == (0, 1)
    assert [flat_index(h) for h in ((0, 0), (1, 0), (2, 0), (0, 1), (0, 2))] == [0, 1, 2, 3, 6]


def test_reference_covector_diagonal_identity_twist_rows():
    twist = TwistData.from_eigenvalues([1.0, 2.0, 3.0])  # W = I
    params = ModelParams(2, 0.5 + 0.1j, (0.1, 0.9), twist)
    row = reference_covector((1, 1, 1), params)
    np.testing.assert_allclose(row, np.ones(9))


def test_reference_covector_case_conditions():
    twist = TwistData.from_eigenvalues([1.0, 2.0, 3.0])
    params = ModelParams(1, 0.5, (0.0,), twist)
    with pytest.raises(DegenerateReference):
        reference_covector((1.0, 0.0, 1.0), params)
    kj = np.array([[2.0, 1, 0], [0, 2.0, 0], [0, 0, 5.0]])
    twist2 = TwistData.from_jordan(np.eye(3), kj)
    params2 = ModelParams(1, 0.5, (0.0,), twist2)
    # case ii only needs x and z
    reference_covector((1.0, 0.0, 1.0), params2)
    with pytest.raises(DegenerateReference):
        reference_covector((0.0, 1.0, 1.0), params2)


def test_reference_covector_tensor_entry():
    params, xyz, _ = make_params(31, 2)
    row = reference_covector(xyz, params)
    site = np.array(xyz) @ np.linalg.inv(params.twist.w)
    assert row[0] == pytest.approx(site[0] ** 2, rel=1e-13)


def _dpoly(params, lam):
    out = 1.0 + 0j
    for x in params.xi:
        out *= lam - x
    return out


def test_reference_vector_matches_local_solve_oracle():
    """Per site, the reference vector factor is pinned by three linear
    conditions: it annihilates (x,y,z) and (x,y,z) K_J and pairs to
    1/(d(xi_a - eta) d(xi_a - 2 eta)) against (x,y,z) adj(K_J).  Building the
    full vector from 3x3 solves must reproduce the closed form."""
    for seed, wild in ((41, False), (42, True)):
        params, xyz, _ = make_params(seed, 2, wild_w=wild)
        twist = params.twist
        vec = reference_vector_closed(xyz, params)
        v = np.array(xyz)
        mat = np.vstack([v @ twist.k_adjugate, v, v @ twist.k_jordan])
        factors = []
        for a in range(params.sites):
            target = np.zeros(3, dtype=complex)
            target[0] = 1.0 / (
                _dpoly(params, params.xi[a] - params.eta)
                * _dpoly(params, params.xi[a] - 2 * params.eta)
            )
            factors.append(twist.w @ np.linalg.solve(mat, target))
        oracle = tensor_product_state(factors)
        assert np.abs(vec - oracle).max() <= 1e-11 * np.abs(oracle).max()


def test_reference_vector_duality(det0_chain2, chain2):
    for params, xyz, cache, pair in (det0_chain2, chain2):
        resid = np.abs(pair.left @ pair.ref_vector - np.eye(params.dim)[0]).max()
        assert resid <= 1e-10


def test_reference_vector_solve_matches_closed():
    params, xyz, _ = make_params(51, 1)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    solved = reference_vector_solve(pair.left, pair.row_norms, pair.rank_ratios()[0])
    assert np.abs(solved - pair.ref_vector).max() <= 1e-12 * np.abs(pair.ref_vector).max()


def test_reference_vector_solve_agreement_n3(chain3):
    params, xyz, cache, pair = chain3
    solved = reference_vector_solve(pair.left, pair.row_norms, pair.rank_ratios()[0])
    rel = np.abs(solved - pair.ref_vector).max() / np.abs(pair.ref_vector).max()
    assert rel <= 1e-8


def test_reference_vector_solve_singular():
    """A family with zero rows has rank ratio 0, which refuses the solve."""
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = 1.0
    pair = SovBasisPair(bad, bad.T.copy(), "powers", bad[0].copy(), bad[:, 0].copy())
    with pytest.raises(SingularBasis):
        reference_vector_solve(pair.left, pair.row_norms, pair.rank_ratios()[0])


def test_rank_ratios_computed_once_on_a_dressed_pair(chain2, monkeypatch):
    """A pair runs one SVD per family however often its ratios are read, a
    dressed and a power pair alike, and ``reference_vector_solve`` takes
    the left one with the row norms from the pair."""
    params, xyz, _, _ = chain2
    calls = []
    exact = sov_bases.rank_ratio
    monkeypatch.setattr(sov_bases, "rank_ratio", lambda m: calls.append(1) or exact(m))
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    rl, rr = pair.rank_ratios()
    assert pair.rank_ratios() == (rl, rr) and pair.require_full_rank() == (rl, rr)
    solved = reference_vector_solve(pair.left, pair.row_norms, rl)
    assert len(calls) == 2 and rl == exact(pair.left / np.linalg.norm(pair.left, axis=1)[:, None])
    assert rel_residual(solved - pair.ref_vector, pair.ref_vector) <= 1e-10
    powers = power_pair(cache, xyz, ParameterSampler(99).reference3())
    powers.rank_ratios()
    powers.rank_ratios()
    assert len(calls) == 4


def test_rank_deficient_family_raises_with_given_ratio(chain2):
    """A repeated left row makes a read-only pair rank deficient: its memoized
    ratio, handed to ``reference_vector_solve``, still refuses the solve."""
    pair = chain2[3]
    left = pair.left.copy()
    left[1] = left[0]
    left.setflags(write=False)
    bad = dataclasses.replace(pair, left=left)
    rl, _ = bad.rank_ratios()
    assert rl < 1e-13
    with pytest.raises(SingularBasis):
        reference_vector_solve(bad.left, bad.row_norms, rl)
    with pytest.raises(SingularBasis):
        bad.require_full_rank()


@pytest.mark.parametrize("seed", [1, 4])
def test_closed_vs_solve_catches_wrong_reference(seed):
    """``bases.closed_vs_solve`` passes the closed |0> on four sites and fails
    a slightly rescaled one and one built in the Jordan frame (W dropped)."""
    ws = Workspace("gl3", 4, seed)
    cache, xyz, pair = ws.gl3()
    params = cache.params
    tol = DEFAULT_TOLERANCES["bases"]
    assert run_bases(ws, tol).details["closed_vs_solve"] <= tol

    w_inv = np.linalg.inv(params.twist.w)
    no_w = pair.ref_vector.reshape((3,) * params.sites)
    for axis in range(params.sites):
        no_w = np.moveaxis(np.tensordot(w_inv, no_w, axes=(1, axis)), 0, axis)
    for wrong in (pair.ref_vector * (1 + 1e-7), no_w.reshape(-1)):
        ws._cache["gl3"] = (cache, xyz, dataclasses.replace(pair, ref_vector=wrong))
        assert run_bases(ws, tol).details["closed_vs_solve"] > tol


def test_dressed_pair_is_a_read_only_value(chain2):
    """Each call builds a new read-only pair with the same bits; other
    reference components give another pair."""
    params, xyz, _, _ = chain2
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    x, y, z = xyz
    other = dressed_pair(cache, (x, 2 * y, z))
    assert not np.allclose(other.left, pair.left)
    fresh = dressed_pair(cache, list(xyz))
    assert fresh is not pair
    for name in ("left", "right", "ref_covector", "ref_vector"):
        mine, theirs = getattr(pair, name), getattr(fresh, name)
        assert np.array_equal(mine, theirs) and not np.shares_memory(mine, theirs)
        with pytest.raises(ValueError):
            mine[0] = 0


def test_power_variant_reference_row(chain2):
    params, xyz, cache, _ = chain2
    s = ParameterSampler(99)
    pair = power_pair(cache, xyz, s.reference3())
    assert not any(arr.flags.writeable for arr in (pair.left, pair.right, pair.row_norms))
    np.testing.assert_allclose(pair.left[0], pair.ref_covector)
    np.testing.assert_allclose(pair.right[:, 0], pair.ref_vector)


def test_dressed_h_zero_is_reference(chain2):
    params, xyz, cache, pair = chain2
    one = (1,) * params.sites
    np.testing.assert_allclose(pair.left[flat_index(one)], pair.ref_covector)
    zero = (0,) * params.sites
    np.testing.assert_allclose(pair.right[:, flat_index(zero)], pair.ref_vector)


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_full_rank_all_twist_cases(case):
    s = ParameterSampler(61)
    eta = s.shift()
    w = s.invertible3()
    if case == "i":
        twist = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=w)
    elif case == "ii":
        kj = np.array([[0.8 + 0.3j, 1, 0], [0, 0.8 + 0.3j, 0], [0, 0, -0.9 + 0.5j]])
        twist = TwistData.from_jordan(w, kj)
    else:
        kj = np.array([[0.7 - 0.4j, 1, 0], [0, 0.7 - 0.4j, 1], [0, 0, 0.7 - 0.4j]])
        twist = TwistData.from_jordan(w, kj)
    params = ModelParams(2, eta, s.inhomogeneities(2, eta), twist)
    pair = dressed_pair(TransferCache(params), s.reference3())
    rl, rr = pair.rank_ratios()
    assert min(rl, rr) > 1e-9


def test_full_rank_singular_simple_twist(det0_chain3):
    params, _, _, pair = det0_chain3
    rl, rr = pair.rank_ratios()
    assert min(rl, rr) > 1e-9


def test_variant_relation(chain2):
    """Dressed rows coincide with plain-power rows scaled by the quantum
    determinant on the digit-0 sites, once the references are matched through
    the full product of T_1 over the inhomogeneities."""
    params, xyz, cache, pair = chain2
    full = np.eye(params.dim, dtype=complex)
    for x in params.xi:
        full = full @ cache.t1(x)
    base_row = np.linalg.solve(full.T, pair.ref_covector)
    t1 = [cache.t1(x) for x in params.xi]
    for h in all_labels(params.sites):
        row = base_row
        for a, d in enumerate(h):
            for _ in range(d):
                row = row @ t1[a]
        alpha = np.prod(
            [
                quantum_determinant(params, params.xi[a]) if d == 0 else 1.0
                for a, d in enumerate(h)
            ]
        )
        ref = pair.left[flat_index(h)]
        assert np.abs(ref - alpha * row).max() <= 1e-9 * np.abs(ref).max()
