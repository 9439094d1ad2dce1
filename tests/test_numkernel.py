import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sovlab.errors import EigFailure
from sovlab.numkernel import (
    EigenDecomposition,
    adjugate3,
    antisymmetrizer,
    eig_general,
    vandermonde,
)

from oracles import reconstruct

rng = np.random.default_rng(42)


def crand(*shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def test_eig_diagonal():
    dec = eig_general(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(dec.values, [1, 2, 3])
    np.testing.assert_allclose(np.abs(dec.right), np.eye(3), atol=1e-14)


def test_eig_swap():
    dec = eig_general(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.values, [-1, 1], atol=1e-14)


def cubic_roots(a, b, c):
    """Closed-form (Cardano) roots of x^3 - a x^2 + b x - c, the independent
    oracle for the companion-matrix spectrum."""
    p = b - a * a / 3
    q = -2 * a**3 / 27 + a * b / 3 - c
    # x = t + a/3 with t^3 + p t + q = 0
    disc = (q / 2) ** 2 + (p / 3) ** 3
    sq = np.sqrt(complex(disc))
    u = (-q / 2 + sq) ** (1 / 3)
    if abs(u) < 1e-30:
        u = (-q / 2 - sq) ** (1 / 3)
    omega = np.exp(2j * np.pi / 3)
    roots = []
    for k in range(3):
        uk = u * omega**k
        roots.append(uk - p / (3 * uk) + a / 3)
    return roots


def test_eig_companion_cubic():
    rng_local = np.random.default_rng(5)
    checked = 0
    while checked < 4:
        a, b, c = (rng_local.integers(-6, 7) / 4 for _ in range(3))
        want = cubic_roots(a, b, c)
        gaps = [abs(want[i] - want[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) < 1e-3:  # defective companion matrices are out of contract
            continue
        comp = np.array([[a, -b, c], [1, 0, 0], [0, 1, 0]], dtype=complex)
        dec = eig_general(comp)
        want = sorted(want, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        got = sorted(dec.values, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        for w, g in zip(want, got):
            assert abs(w - g) < 1e-10
        checked += 1


def test_eig_reconstruction_and_biorthogonality():
    for _ in range(4):
        a = crand(6, 6)
        dec = eig_general(a)
        assert dec.residual_norm <= 1e-10
        rel = np.abs(reconstruct(dec) - a).max() / np.abs(a).max()
        assert rel <= 1e-8
        np.testing.assert_allclose(dec.left @ dec.right, np.eye(6), atol=1e-9)


def test_eig_defective_matrix_raises():
    with pytest.raises(EigFailure):
        eig_general(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_eig_residual_reads_the_left_family():
    """On A = V diag V^-1 with cond(V) ~ 1e10 the inverse of the right
    eigenvectors is the less accurate family; ``residual_norm`` must cover its
    residual, computed here on unit-norm rows, and not only the right one."""
    gen = np.random.default_rng(3)
    u, _, vh = np.linalg.svd(gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6)))
    v = u @ np.diag(np.logspace(0, -10, 6)) @ vh
    v /= np.linalg.norm(v, axis=0)
    assert 1e9 < np.linalg.cond(v) < 1e11
    a = v @ np.diag(np.arange(1, 7) * (1 + 0.5j)) @ np.linalg.inv(v)
    dec = eig_general(a)
    scale = np.linalg.norm(a)
    right = np.linalg.norm(a @ dec.right - dec.right * dec.values, axis=0).max() / scale
    left_rows = np.linalg.norm(dec.left @ a - dec.values[:, None] * dec.left, axis=1)
    left = (left_rows / np.linalg.norm(dec.left, axis=1)).max() / scale
    assert left > 10 * right  # the left side is what this matrix tests
    assert dec.residual_norm >= left
    assert dec.residual_norm <= 1e-10


def test_antisymmetrizer_m1_identity():
    np.testing.assert_array_equal(antisymmetrizer(3, 1), np.eye(3))


def test_antisymmetrizer_trace():
    assert abs(np.trace(antisymmetrizer(3, 2)) - 3) < 1e-13
    assert abs(np.trace(antisymmetrizer(2, 2)) - 1) < 1e-13


def test_antisymmetrizer_m3_rank_one():
    p = antisymmetrizer(3, 3)
    s = np.linalg.svd(p, compute_uv=False)
    assert s[0] > 0.5 and s[1] < 1e-13


@pytest.mark.parametrize("d,m", [(3, 1), (3, 2), (3, 3), (2, 2)])
def test_antisymmetrizer_projector(d, m):
    p = antisymmetrizer(d, m)
    assert np.abs(p @ p - p).max() <= 1e-13
    assert np.abs(p - p.conj().T).max() <= 1e-13


def test_vandermonde_values():
    assert vandermonde([]) == 1
    assert vandermonde([5]) == 1
    assert vandermonde([1, 3, 4]) == (3 - 1) * (4 - 1) * (4 - 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=5))
def test_vandermonde_product_property(xs):
    ref = 1.0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            ref *= xs[j] - xs[i]
    assert vandermonde(xs) == pytest.approx(ref)


def test_adjugate_identity():
    m = crand(3, 3)
    np.testing.assert_allclose(adjugate3(m) @ m, np.linalg.det(m) * np.eye(3), atol=1e-12)
