import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sovlab import gl3_model
from sovlab.errors import IndexOrder, SpectrumNotSimple
from sovlab.gl3_model import (
    InterpolationWeights,
    ModelParams,
    TransferCache,
    TwistData,
    check_yang_baxter,
    embed,
    exchange_relation_residual,
    fused_apply,
    fused_contract,
    fused_dense,
    fusion_residuals,
    monodromy,
    on_legs,
    product_formula_check,
    quantum_determinant,
    r_matrix,
    rtt_residual,
    scalar_yb_residual,
    t2_interpolated,
    transfer,
)
from sovlab.numkernel import adjugate3, antisymmetrizer

from conftest import make_params
from oracles import (
    mpo_extended,
    node_normalization,
    running_tensor_dense,
    site_tables_oracle,
    t1_leading_coefficient,
)

rng = np.random.default_rng(1)


def crand():
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def test_r_matrix_limits():
    eta = crand()
    perm = r_matrix(0, 1.0)  # eta * P with eta = 1
    np.testing.assert_allclose(r_matrix(0, eta), eta * perm)
    lam = crand()
    np.testing.assert_allclose(r_matrix(lam, 0), lam * np.eye(9))


def test_r_matrix_corner_entry():
    lam, eta = crand(), crand()
    assert r_matrix(lam, eta)[0, 0] == lam + eta


def _embedding_by_definition(op, n, legs, d):
    """Entry-wise oracle: op on the digits at ``legs``, a Kronecker delta on
    every other slot; slot 0 is the slowest digit."""
    out = np.zeros((d**n, d**n), dtype=complex)
    for row in itertools.product(range(d), repeat=n):
        for col in itertools.product(range(d), repeat=n):
            if any(row[s] != col[s] for s in range(n) if s not in legs):
                continue
            i = sum(row[s] * d ** (len(legs) - 1 - k) for k, s in enumerate(legs))
            j = sum(col[s] * d ** (len(legs) - 1 - k) for k, s in enumerate(legs))
            out[np.ravel_multi_index(row, (d,) * n), np.ravel_multi_index(col, (d,) * n)] = op[i, j]
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_embed_is_an_exact_copy(d):
    """Embedding copies entries without rounding: on the leading slots it is
    the Kronecker product bit for bit, on any slots the definition."""
    local = np.random.default_rng(60 + d)
    op = local.standard_normal((d * d, d * d)) + 1j * local.standard_normal((d * d, d * d))
    assert np.array_equal(embed(op, 3, (0, 1), d), np.kron(op, np.eye(d)))
    for legs in [(0, 2), (2, 0), (1, 2)]:
        assert np.array_equal(embed(op, 3, legs, d), _embedding_by_definition(op, 3, legs, d))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("legs", [(1,), (0,), (0, 2), (2, 0), (1, 2), (2, 1)])
def test_on_legs_matches_dense_embedding(d, legs):
    local = np.random.default_rng(70 + d)
    n, k = 3, len(legs)
    mat = local.standard_normal((5, d**n)) + 1j * local.standard_normal((5, d**n))
    op = local.standard_normal((d**k, d**k)) + 1j * local.standard_normal((d**k, d**k))
    want = mat @ embed(op, n, legs, d)
    got = on_legs(mat, op, legs, d)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("legs", [(1, 1), (0, 3), (-1,), (3,)])
def test_on_legs_rejects_bad_legs(legs):
    op = np.eye(3 ** len(legs), dtype=complex)
    with pytest.raises(ValueError):
        on_legs(np.eye(27, dtype=complex), op, legs)
    with pytest.raises(ValueError):
        embed(op, 3, legs)


def test_yang_baxter_random():
    for _ in range(4):
        assert check_yang_baxter(crand(), crand(), crand()) <= 1e-12


def test_yang_baxter_equal_points_and_scalar_limit():
    lam, eta = crand(), crand()
    assert check_yang_baxter(lam, lam, eta) <= 1e-12
    # eta = 0 makes every factor a scalar multiple of the identity; only
    # multiplication-order rounding is left
    assert check_yang_baxter(lam, crand(), 0) <= 1e-15


def test_monodromy_one_site_single_factor():
    """At one site the monodromy is the twist insertion times one R-matrix;
    for K -> I it reduces to R(lam - xi_1) alone."""
    params, _, _ = make_params(2, 1)
    lam = crand()
    m = monodromy(params, lam)
    r = r_matrix(lam - params.xi[0], params.eta)
    want = np.kron(params.twist.k_matrix, np.eye(3)) @ r
    np.testing.assert_allclose(m, want, atol=1e-13 * np.abs(want).max())
    kinv = np.kron(np.linalg.inv(params.twist.k_matrix), np.eye(3))
    np.testing.assert_allclose(kinv @ m, r, atol=1e-12 * np.abs(r).max())


def test_monodromy_matches_embedded_chain():
    params, _, _ = make_params(3, 2)
    lam = crand()
    m = monodromy(params, lam)
    want = np.kron(params.twist.k_matrix, np.eye(9))
    for a in (2, 1):
        want = want @ embed(r_matrix(lam - params.xi[a - 1], params.eta), 3, (0, 3 - a))
    np.testing.assert_allclose(m, want, atol=1e-13 * np.abs(want).max())


def test_rtt_relation():
    params, _, _ = make_params(5, 2)
    for _ in range(2):
        assert rtt_residual(params, crand(), crand()) <= 1e-10


def test_scalar_yang_baxter():
    params, _, _ = make_params(6, 2)
    assert scalar_yb_residual(params.twist.k_matrix, crand(), params.eta) <= 1e-12


def test_transfer_one_site_t1():
    params, _, _ = make_params(8, 1)
    got = transfer(params, 1, params.xi[0])
    np.testing.assert_allclose(
        got, params.eta * params.twist.k_matrix, atol=1e-13 * abs(params.eta)
    )


def test_transfer_one_site_t2_adjugate():
    """Fusion forces T_2(xi - eta) = 2 eta^2 adj(K) at one site; the oracle
    here is an independent dense projector-trace construction."""
    params, _, _ = make_params(9, 1)
    eta, xi0, k = params.eta, params.xi[0], params.twist.k_matrix
    got = transfer(params, 2, xi0 - eta)
    np.testing.assert_allclose(got, 2 * eta**2 * adjugate3(k), atol=1e-12)

    # direct oracle on aux (x) aux (x) site: tr_{12}[P- M1(lam) M2(lam-eta)]
    lam = xi0 - eta
    r1 = embed(r_matrix(lam - xi0, eta), 3, (0, 2))
    r2 = embed(r_matrix(lam - eta - xi0, eta), 3, (1, 2))
    k1 = embed(k, 3, (0,))
    k2 = embed(k, 3, (1,))
    proj = embed(antisymmetrizer(3, 2), 3, (0, 1))
    big = proj @ k1 @ r1 @ k2 @ r2
    oracle = big.reshape(9, 3, 9, 3).trace(axis1=0, axis2=2)
    np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_quantum_determinant_closed_form(chain3):
    params, _, cache, _ = chain3
    for _ in range(5):
        lam = crand()
        t3 = cache.t3(lam)
        pred = quantum_determinant(params, lam)
        assert np.abs(t3 - pred * np.eye(params.dim)).max() <= 1e-10 * abs(pred)


def test_transfer_commutativity(chain3):
    params, _, cache, _ = chain3
    for m, mp in ((1, 1), (1, 2), (2, 2)):
        a = cache.value(m, crand())
        b = cache.value(mp, crand())
        comm = a @ b - b @ a
        assert np.abs(comm).max() <= 1e-10 * np.abs(a @ b).max()


def test_t3_centrality(chain2):
    params, _, cache, _ = chain2
    t3 = cache.t3(crand())
    scalar = np.trace(t3) / params.dim
    assert np.abs(t3 - scalar * np.eye(params.dim)).max() <= 1e-10 * abs(scalar)


def test_asymptotics_richardson(chain2):
    params, _, cache, _ = chain2
    scale = max(max(abs(x) for x in params.xi), abs(params.eta), 1.0)
    lam = 1e6 * scale
    for m, lead in ((1, params.twist.trace_inv), (2, params.twist.second_inv)):
        f1 = cache.value(m, lam) / lam ** (m * params.sites)
        f2 = cache.value(m, 2 * lam) / (2 * lam) ** (m * params.sites)
        rich = 2 * f2 - f1
        assert np.abs(rich - lead * np.eye(params.dim)).max() <= 1e-4 * abs(lead)


def test_t1_polynomial_leading_coefficient(chain2):
    params, _, cache, _ = chain2
    lead = t1_leading_coefficient(cache)
    assert np.abs(lead - params.twist.trace_inv * np.eye(params.dim)).max() <= 1e-8


def test_fusion_residuals(chain3):
    params, _, cache, _ = chain3
    table = fusion_residuals(cache)
    assert max(table["fusion"].values()) <= 1e-10
    assert max(table["central_zero"].values()) <= 1e-10


def test_fusion_one_site_adjugate_identity():
    params, _, _ = make_params(13, 1)
    cache = TransferCache(params)
    table = fusion_residuals(cache)
    assert max(table["fusion"].values()) <= 1e-12


def test_t2_interpolation_nodes_and_random(chain2):
    params, _, cache, _ = chain2
    # interpolation node: both sides equal T_2(xi_1)
    node = params.xi[0]
    np.testing.assert_allclose(
        t2_interpolated(cache, node),
        cache.t2(node),
        atol=1e-11 * np.abs(cache.t2(node)).max(),
    )
    # central zero
    zval = t2_interpolated(cache, params.xi[0] + params.eta)
    assert np.abs(zval).max() <= 1e-11 * np.abs(cache.t2(node)).max()
    for _ in range(3):
        lam = crand()
        t2 = cache.t2(lam)
        diff = np.abs(t2_interpolated(cache, lam) - t2).max()
        assert diff <= 1e-9 * np.abs(t2).max()


def test_interpolation_weight_normalization(chain2):
    params, _, _, _ = chain2
    w = InterpolationWeights(params)
    shifts = (1, 0)
    for a in range(params.sites):
        for order in (1, 2):
            node = params.xi_shifted(a, shifts[a])
            val = w.g(a, shifts, node, order) * node_normalization(params, a, shifts, order)
            assert abs(val - 1) < 1e-12


def test_product_formula(chain3):
    cache = chain3[2]
    assert product_formula_check(cache, (1,)) <= 1e-12
    assert product_formula_check(cache, (1, 3)) <= 1e-10
    assert product_formula_check(cache, (1, 2, 3)) <= 1e-10


def test_product_formula_index_order(chain3):
    cache = chain3[2]
    with pytest.raises(IndexOrder):
        product_formula_check(cache, (2, 1))
    with pytest.raises(IndexOrder):
        product_formula_check(cache, (1, 1))


def test_exchange_relation_four_sites():
    params, _, _ = make_params(17, 4)
    assert exchange_relation_residual(params, 1, 4, (2, 3)) <= 1e-10


def test_cache_stores_only_node_matrices(chain2):
    """T_1 at a node xi_a or xi_a - eta comes back from the store, the same
    object, as a hit; any other point, and T_2 or T_3 at a node, is
    assembled on every request and counted as a miss."""
    params = chain2[0]
    cache = TransferCache(params)
    for lam in (params.xi[0], params.xi[1] - params.eta):
        first = cache.value(1, lam)
        assert cache.value(1, lam) is first
    assert (cache.hits, cache.misses, cache.stored) == ({1: 2}, {1: 2}, 2)
    for m, lam in ((1, params.xi[0] + 0.3), (2, params.xi[1] - params.eta), (2, params.xi[0]),
                   (3, params.xi[0])):
        first = cache.value(m, lam)
        again = cache.value(m, lam)
        assert again is not first and np.array_equal(again, first)
    assert (cache.hits, cache.misses, cache.stored) == ({1: 2}, {1: 4, 2: 4, 3: 2}, 2)


def test_product_formula_reads_the_given_cache(chain3):
    """A primed cache serves every T_1 (no new misses)."""
    params, _, _, _ = chain3
    cache = TransferCache(params)
    for x in params.xi:
        cache.t1(x)
    misses, hits = sum(cache.misses.values()), sum(cache.hits.values())
    assert product_formula_check(cache, (1, 2, 3)) <= 1e-10
    assert sum(cache.misses.values()) == misses
    assert sum(cache.hits.values()) == hits + 3


def test_chain_checks_detect_a_wrong_shift(chain3, monkeypatch):
    """R-chains built with eta off by 1% fail both the product formula and
    the exchange relation."""
    params, _, _, _ = chain3
    four, _, _ = make_params(17, 4)
    cache = TransferCache(params)
    assert product_formula_check(cache, (1, 2)) <= 1e-10
    assert exchange_relation_residual(four, 1, 4, (2, 3)) <= 1e-10
    exact = gl3_model.r_matrix
    monkeypatch.setattr(gl3_model, "r_matrix", lambda lam, eta, d=3: exact(lam, 1.01 * eta, d))
    assert product_formula_check(cache, (1, 2)) >= 1e-6
    assert exchange_relation_residual(four, 1, 4, (2, 3)) >= 1e-6


def test_apply_transfer_free_matches_dense(chain2):
    params, _, cache, _ = chain2
    v = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    for m in (1, 2):
        lam = crand()
        got = fused_apply(params, m, lam, v)
        want = cache.value(m, lam) @ v
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_transfer_free_t3_is_quantum_determinant(chain3):
    params, _, _, _ = chain3
    local = np.random.default_rng(5)  # leaves the module generator's draws as they were
    v = local.standard_normal(params.dim) + 1j * local.standard_normal(params.dim)
    lam = complex(*local.uniform(-1, 1, 2))
    want = quantum_determinant(params, lam) * v
    got = fused_apply(params, 3, lam, v)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_transfer_free_zero_and_linearity(chain2):
    params, _, _, _ = chain2
    lam = crand()
    z = fused_apply(params, 1, lam, np.zeros(params.dim, dtype=complex))
    assert np.abs(z).max() == 0.0
    v = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    w = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
    a = 0.3 - 1.1j
    lhs = fused_apply(params, 2, lam, a * v + w)
    rhs = a * fused_apply(params, 2, lam, v) + fused_apply(params, 2, lam, w)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()


def test_fused_apply_takes_a_vector_or_a_block_of_state_length(chain2):
    """A vector gives a vector and a block a block of the same columns; any
    other length or rank is refused before the kernel runs."""
    params, _, _, _ = chain2
    local = np.random.default_rng(8)  # leaves the module generator's draws as they were
    block = local.standard_normal((params.dim, 3)) + 1j * local.standard_normal((params.dim, 3))
    lam = complex(*local.uniform(-1, 1, 2))
    cols = fused_apply(params, 2, lam, block)
    assert cols.shape == block.shape
    one = fused_apply(params, 2, lam, block[:, 1])
    assert one.shape == (params.dim,)
    assert np.abs(one - cols[:, 1]).max() <= 1e-13 * np.abs(cols[:, 1]).max()
    for bad in (block[1:], block[1:, 0], block[None], np.ones(())):
        with pytest.raises(ValueError, match=f"length {params.dim}"):
            fused_apply(params, 2, lam, bad)


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_fused_dense_matches_identity_columns(sites, monkeypatch):
    """The dense MPO product equals the matrix-free kernel on every identity
    column, on 1-D vectors and on blocks of 1, 2 and 5 columns: gl(3) at
    m = 1, 2, 3, gl(2) at m = 1 and a diagonal det K = 0 twist at m = 1, 2.
    The kernel's site grouping differs with N: no middle site at N = 1, no
    pair at N = 2, one odd middle site at N = 3, one pair at N = 4 and a pair
    with a remainder at N = 5.

    At m = 1 and lam = xi_a the kernel applies the one-site R-chain instead;
    it is checked at every node for the gl(3), gl(2) and det K = 0 twists,
    and at N = 1 it is eta K.  lam one ulp above xi_1 takes the MPO."""
    params, _, s = make_params(40 + sites, sites)
    det0, _, _ = make_params(23, sites, invertible=False)
    lam = s.complex_rational()
    gl2 = s.gl2_twist()
    cases = [(params.twist.k_matrix, m, lam) for m in (1, 2, 3)] + [(gl2, 1, lam)]
    cases += [(det0.twist.k_matrix, m, lam) for m in (1, 2)]
    nodes = [(k, 1, x) for k in (params.twist.k_matrix, gl2, det0.twist.k_matrix)
             for x in params.xi]
    x1 = params.xi[0]
    cases += nodes + [(params.twist.k_matrix, 1, complex(np.nextafter(x1.real, np.inf), x1.imag))]
    node_t1, taken = gl3_model._node_t1, []
    monkeypatch.setattr(gl3_model, "_node_t1", lambda *args: taken.append(args) or node_t1(*args))
    local = np.random.default_rng(sites)  # leaves the module generator's draws as they were
    for k, m, x in cases:
        dim = k.shape[0] ** sites
        dense = fused_dense(k, params.eta, params.xi, m, x)
        assert dense.flags.c_contiguous
        if sites == 1 and x == x1:
            assert np.abs(dense - params.eta * k).max() <= 1e-13 * np.abs(dense).max()
        blocks = [np.eye(dim, dtype=complex)]
        for shape in [(dim,), (dim, 1), (dim, 2), (dim, 5)]:
            blocks.append(local.standard_normal(shape) + 1j * local.standard_normal(shape))
        for block in blocks:
            free = fused_contract(k, params.eta, params.xi, m, x, block)
            want = dense @ block
            assert free.shape == block.shape
            assert np.abs(free - want).max() <= 1e-13 * np.abs(want).max()
    assert len(taken) == len(nodes) * len(blocks)


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_fused_apply_matches_dense_at_nodes_and_off_them(sites):
    """``fused_apply`` equals ``fused_dense`` on a vector and on a 3-column
    block for m = 1, 2, 3, at a generic point and at every node xi_a and
    xi_a - eta: the one-site closing at N = 1, the top-down sweep without a
    middle pair (N = 2), with an odd middle site (N = 3, 5) and without one
    (N = 4), and the one-site R-chain of m = 1 at xi_a.  The twist is not
    diagonal, so the boundary is not symmetric."""
    params, _, s = make_params(60 + sites, sites, wild_w=True)
    local = np.random.default_rng(60 + sites)  # leaves the module generator's draws as they were
    vec = local.standard_normal(params.dim) + 1j * local.standard_normal(params.dim)
    block = local.standard_normal((params.dim, 3)) + 1j * local.standard_normal((params.dim, 3))
    points = [s.complex_rational()] + [x - h * params.eta for x in params.xi for h in (0, 1)]
    for m in (1, 2, 3):
        for lam in points:
            dense = fused_dense(params.k_matrix, params.eta, params.xi, m, lam)
            for v in (vec, block):
                got, want = fused_apply(params, m, lam, v), dense @ v
                assert got.shape == v.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_fused_apply_working_set_is_one_boundary_row():
    """One N = 7 column apply at a generic point holds two work buffers of
    bond * 3^N entries, one auxiliary leg, besides the result and the site
    operators: its traced peak stays below that bound, which a kernel
    carrying both boundary legs (2 bond^2 3^N entries) exceeds."""
    params, _, s = make_params(7, 7)
    lam = s.complex_rational()
    v = np.random.default_rng(7).standard_normal((params.dim, 1)) + 0j
    entry, slack = np.dtype(complex).itemsize, 64 * 1024  # slack: site operators, bookkeeping
    for m, bond in ((1, 3), (2, 3), (3, 1)):
        fused_apply(params, m, lam, v)  # first-call tables and memos are not the working set
        tracemalloc.start()
        try:
            fused_apply(params, m, lam, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = entry * (2 * bond + 1) * params.dim + slack
        assert peak <= bound
        if bond > 1:
            assert entry * 2 * bond**2 * params.dim > bound


def test_transfer_is_dense_monodromy_trace():
    params, _, s = make_params(45, 3)
    lam = s.complex_rational()
    mono = monodromy(params, lam).reshape(3, params.dim, 3, params.dim)
    want = np.trace(mono, axis1=0, axis2=2)
    got = transfer(params, 1, lam)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_fused_dense_keeps_exact_zeros_of_t2_shift():
    """For a diagonal twist with det K = 0, T_2(xi_a - eta) has many vanishing
    entries; the dense product gives exactly 0 where the matrix-free kernel
    reads below rounding, and nonzero values elsewhere."""
    params, _, _ = make_params(23, 3, invertible=False)
    eye = np.eye(params.dim, dtype=complex)
    for a in range(params.sites):
        lam = params.xi[a] - params.eta
        got = transfer(params, 2, lam)
        want = fused_apply(params, 2, lam, eye)
        small = np.abs(want) <= 1e-13 * np.abs(want).max()
        assert small.sum() > params.dim
        assert np.array_equal(got == 0, small)


def _fused_site(d, m, eta, z):
    """Compressed site operator S_a at z = lam - xi_a, indexed [u, i, v, j]."""
    chain = gl3_model._site_tables(d, m, complex(eta))[0]
    bond = gl3_model._wedge_columns(d, m).shape[1]
    coeffs = chain.reshape(m + 1, bond, d, d, bond).transpose(0, 1, 2, 4, 3)
    return np.tensordot(np.vander([z], m + 1, increasing=True)[0], coeffs, axes=1)


def _dense_by_site(k_matrix, eta, xi, m, lam):
    """The per-site dense loop, kept as the bit oracle of ``fused_dense``: one
    site evaluation per site, a boundary built on every call, the halves
    S_k ... S_1 B and S_N ... S_(k+1) (k = N // 2) each grown from the
    identity by one transposed copy and GEMM per site, and a ``tensordot``
    that closes the trace."""
    d = k_matrix.shape[0]
    n = len(xi)
    k = n // 2
    extend = gl3_model._wedge_columns(d, m)
    bond = extend.shape[1]
    boundary = math.factorial(m) * extend.T @ functools.reduce(np.kron, [k_matrix] * m) @ extend
    site = [_fused_site(d, m, eta, lam - x).transpose(0, 1, 3, 2) for x in xi]  # [u, i, j, w]
    low = np.eye(bond, dtype=complex)
    for a in range(k):
        low = site[a].reshape(-1, bond) @ low.reshape(bond, -1)
    low = (low.reshape(-1, bond) @ boundary).reshape(bond, -1, bond)
    high = np.eye(bond, dtype=complex)
    for a in range(n - 1, k - 1, -1):
        high = high.reshape(-1, bond) @ site[a].reshape(bond, -1)
    out = np.tensordot(high.reshape(bond, -1, bond), low, axes=([0, 2], [2, 0]))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return out.reshape((d,) * (2 * n)).transpose(order).reshape(d**n, d**n)


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_fused_dense_keeps_the_bits_of_the_site_loop(sites):
    """The dense kernel is bit-equal to the per-site loop: gl(3) at m = 1, 2, 3,
    a diagonal det K = 0 twist at m = 1, 2, 3 (at generic points and at the
    T_2 zeros xi_a - eta) and gl(2) at m = 1."""
    params, _, s = make_params(40 + sites, sites)
    det0, _, _ = make_params(23, sites, invertible=False)
    lams = [s.complex_rational() for _ in range(3)]
    cases = [(params, params.twist.k_matrix, m, lams) for m in (1, 2, 3)]
    cases += [(params, s.gl2_twist(), 1, lams)]
    det0_lams = lams + [x - det0.eta for x in det0.xi]
    cases += [(det0, det0.twist.k_matrix, m, det0_lams) for m in (1, 2, 3)]
    for chain, k, m, points in cases:
        for lam in points:
            got = fused_dense(k, chain.eta, chain.xi, m, lam)
            assert np.array_equal(got, _dense_by_site(k, chain.eta, chain.xi, m, lam))


def test_boundary_memo_is_per_twist_and_read_only():
    """Two chains that share eta, xi and every (d, m) but not the twist,
    assembled in turn, each equal their own oracle; the memoized boundary
    and the coefficient tables refuse writes."""
    params, _, s = make_params(47, 3)
    twist = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
    other = params.with_twist(twist)
    lam = s.complex_rational()
    for m in (1, 2, 3):
        for chain in (params, other, params):
            want = _dense_by_site(chain.twist.k_matrix, chain.eta, chain.xi, m, lam)
            assert np.array_equal(transfer(chain, m, lam), want)
    frozen = [gl3_model._boundary(params.twist.k_matrix, 2)]
    frozen += gl3_model._site_tables(3, 2, params.eta)
    for arr in frozen:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_fused_dense_rounds_no_worse_than_the_running_tensor():
    """Against the same MPO contracted in extended precision, over N = 2..5
    on seeds 1 and 2: gl(3) with a non-diagonal twist at m = 1, 2, 3, gl(2)
    at m = 1, and a diagonal det K = 0 twist at m = 1, 2 (its T_3 is exactly
    0), each at three generic points and at every xi_a, xi_a - eta and
    xi_a + eta.  Each error is max|T - T_ext| over the largest |T_ext| of
    its chain and order at the generic points.  Over the whole set, the
    worst and the mean error of ``fused_dense`` are no larger than those of
    the running-tensor association."""
    errors = {fused_dense: [], running_tensor_dense: []}
    for seed in (1, 2):
        for sites in range(2, 6):
            params, _, s = make_params(seed, sites, wild_w=True)
            det0, _, _ = make_params(seed, sites, invertible=False)
            generic = [s.complex_rational() for _ in range(3)]
            cases = [(params, params.twist.k_matrix, m) for m in (1, 2, 3)]
            cases += [(params, s.gl2_twist(), 1)]
            cases += [(det0, det0.twist.k_matrix, m) for m in (1, 2)]
            for chain, k, m in cases:
                nodes = [x + h * chain.eta for x in chain.xi for h in (0, -1, 1)]
                exact = {lam: mpo_extended(k, chain.eta, chain.xi, m, lam) for lam in generic + nodes}
                scale = max(np.abs(exact[lam].astype(complex)).max() for lam in generic)
                for kernel, found in errors.items():
                    for lam, want in exact.items():
                        diff = (kernel(k, chain.eta, chain.xi, m, lam) - want).astype(complex)
                        found.append(np.abs(diff).max() / scale)
    new, old = errors[fused_dense], errors[running_tensor_dense]
    assert len(new) == 648
    assert max(new) <= max(old)
    assert np.mean(new) <= np.mean(old)


def test_fused_dense_working_set_is_two_dense_matrices():
    """One N = 5 assembly holds the closing GEMM's result and its swapped
    copy besides the two half-chains: its traced peak stays below 2.5 dim^2
    entries, which the running-tensor association (3 dim^2 at bond > 1)
    exceeds."""
    params, _, s = make_params(7, 5)
    lam = s.complex_rational()
    entry, slack = np.dtype(complex).itemsize, 64 * 1024  # slack: site operators, bookkeeping
    bound = entry * 2.5 * params.dim**2 + slack
    for m, bond in ((1, 3), (2, 3), (3, 1)):
        peaks = []
        for kernel in (fused_dense, running_tensor_dense):
            kernel(params.k_matrix, params.eta, params.xi, m, lam)  # first-call tables and memos
            tracemalloc.start()
            try:
                kernel(params.k_matrix, params.eta, params.xi, m, lam)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= bound
        if bond > 1:
            assert peaks[1] > bound


def test_site_tables_match_the_construction_with_every_product():
    """The coefficient tables skip the products by the identity and by the
    zero pad, and equal the construction that takes them, for gl(2) and
    gl(3) at m = 1..3 on several grid values of eta."""
    for d in (2, 3):
        for m in (1, 2, 3):
            for eta in (0.5 + 1.375j, -0.375 + 0.125j, 1.25 - 0.875j, 0.125j, -1.5 + 0j):
                got = gl3_model._site_tables(d, m, eta)
                for table, want in zip(got, site_tables_oracle(d, m, eta)):
                    assert np.array_equal(table, want)


def test_twist_from_matrix_rejects_degenerate():
    with pytest.raises(SpectrumNotSimple):
        TwistData.from_matrix(np.diag([1.0, 1.0, 2.0]))


def test_twist_jordan_cases():
    kj2 = np.array([[2.0, 1, 0], [0, 2.0, 0], [0, 0, 5.0]])
    t2 = TwistData.from_jordan(np.eye(3), kj2)
    assert t2.case == "ii"
    kj3 = np.array([[2.0, 1, 0], [0, 2.0, 1], [0, 0, 2.0]])
    t3 = TwistData.from_jordan(np.eye(3), kj3)
    assert t3.case == "iii"
    assert abs(t3.det - 8.0) < 1e-12


def test_params_validation():
    twist = TwistData.from_eigenvalues([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ModelParams(2, 0.5, (0.0, 0.5), twist)  # xi difference equals eta
    with pytest.raises(ValueError):
        ModelParams(1, 0.0, (0.0,), twist)
