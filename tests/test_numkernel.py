import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sovlab.det0_spectrum import make_khat
from sovlab.errors import EigFailure, SovLabError, SpectrumNotSimple
from sovlab.gl3_model import (
    ModelParams,
    TwistData,
    default_probe_point,
    transfer,
    weight_sectors,
)
from sovlab.numkernel import (
    adjugate3,
    antisymmetrizer,
    canonical_eig_order,
    eig_general,
    kron_power_product,
    vandermonde,
)
from sovlab.sampling import ParameterSampler

from oracles import reconstruct

rng = np.random.default_rng(42)


def crand(*shape):
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def test_eig_diagonal():
    dec = eig_general(np.diag([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(dec.values, [1, 2, 3])
    np.testing.assert_allclose(np.abs(dec.right), np.eye(3), atol=1e-14)
    assert dec.min_rel_gap == 1 / 3 and dec.eigvec_cond == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dec.left = None


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


@pytest.mark.parametrize("legs", [1, 2, 3, 4])
def test_kron_power_product_matches_the_kronecker_power(legs):
    op, other, mat = crand(3, 3), crand(3, 3), crand(3**legs, 3**legs)
    power, power2 = np.eye(1), np.eye(1)
    for _ in range(legs):
        power, power2 = np.kron(power, op), np.kron(power2, other)
    np.testing.assert_allclose(kron_power_product(mat, legs, left=op), power @ mat, atol=1e-12)
    np.testing.assert_allclose(kron_power_product(mat, legs, right=op), mat @ power, atol=1e-12)
    np.testing.assert_allclose(kron_power_product(mat, legs, left=op, right=other),
                               power @ mat @ power2, atol=1e-11)


@functools.lru_cache(maxsize=None)
def probe_chains(seed, sites):
    """Transfer matrices T_1 at the probe point of one sampled chain with
    four twists on the same W: a case-i twist, its det K = 0 companion, and
    case-ii and case-iii Jordan twists, keyed by name."""
    s = ParameterSampler(seed)
    eta, w, vals = s.shift(), s.invertible3(), s.distinct_eigenvalues()
    k0, k2 = vals[0], vals[1]
    twist_i = TwistData.from_eigenvalues(vals, w=w)
    twists = {
        "i": twist_i,
        "khat": make_khat(twist_i),
        "ii": TwistData.from_jordan(w, [[k0, 1, 0], [0, k0, 0], [0, 0, k2]]),
        "iii": TwistData.from_jordan(w, [[k0, 1, 0], [0, k0, 1], [0, 0, k0]]),
    }
    xi = s.inhomogeneities(sites, eta)
    out = {}
    for name, twist in twists.items():
        params = ModelParams(sites, eta, xi, twist)
        out[name] = (twist, transfer(params, 1, default_probe_point(params)))
    return out


def sector_agreement(a, sectors):
    """The sector and one-sector decompositions of ``a``, checked to agree
    state by state in the canonical order: eigenvalues to 1e-13 relative, and
    eigenvectors up to phase."""
    one, sec = eig_general(a), eig_general(a, sectors=sectors)
    scale = np.abs(one.values).max()
    assert np.abs(sec.values - one.values).max() <= 1e-13 * scale
    ref = one.right
    phase = np.einsum("ij,ij->j", ref.conj(), sec.right)
    phase /= np.abs(phase)
    assert np.abs(sec.right - ref * phase).max() <= 1e-10
    np.testing.assert_allclose(sec.left @ sec.right, np.eye(len(a)), atol=1e-12)
    return one, sec


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_sector_eig_matches_one_sector(sites):
    """The case-i twist and its det K = 0 companion, the two chains the
    probe-point decompositions run on: the sector path agrees with the
    one-sector path on seeds 1..13, and its residual is no larger."""
    for seed in range(1, 14):
        for name in ("i", "khat"):
            twist, a = probe_chains(seed, sites)[name]
            one, sec = sector_agreement(a, weight_sectors(twist, sites))
            assert sec.residual_norm <= one.residual_norm, (seed, name)


def test_tied_real_parts_are_ordered_by_imaginary_part():
    """At N = 2, seed 11 the K-hat probe spectrum has four eigenvalues whose
    real parts agree to rounding.  The canonical order puts them by imaginary
    part, so moving every real part by 1e-13 relative, or every matrix entry
    by one rounding, leaves each state where it was."""
    twist, a = probe_chains(11, 2)["khat"]
    dec = eig_general(a, sectors=weight_sectors(twist, 2))
    scale = np.abs(dec.values).max()
    real = dec.values.real
    tied = (np.abs(real[:, None] - real[None, :]) <= 1e-14 * scale).sum(axis=1) > 1
    assert tied.sum() == 4 and np.all(np.diff(dec.values.imag[tied]) > 0.5)
    shake = np.random.default_rng(11)
    for _ in range(20):
        moved = dec.values + 1e-13 * scale * shake.standard_normal(len(a))
        np.testing.assert_array_equal(canonical_eig_order(moved), np.arange(len(a)))
        rounded = a * (1 + 2.0**-52 * shake.choice([-1, 1], a.shape))
        again = eig_general(rounded, sectors=weight_sectors(twist, 2))
        assert np.abs(again.values - dec.values).max() <= 1e-13 * scale


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_jordan_twist_sector_maps(sites):
    """A Jordan twist's T_1 is defective, as is K itself at N = 1: both paths
    refuse the case-ii T_1 as the probe point does (relative gap 1e-8 to
    1e-16), and the one group of case iii is the one-sector path, bit for bit.
    The case-ii and case-iii maps, coarser than case i's, also hold on the
    case-i T_1 on the same W, whose diagonal K_J commutes with every Jordan
    block projector; there the sector path agrees with the one-sector one
    and stays at rounding."""
    for seed in range(1, 14):
        chains = probe_chains(seed, sites)
        twist_ii, a_ii = chains["ii"]
        for sectors in (None, weight_sectors(twist_ii, sites)):
            with pytest.raises(SpectrumNotSimple):
                eig_general(a_ii, gap_rtol=1e-6, sectors=sectors)
        twist_iii, a_iii = chains["iii"]
        assert len(set(weight_sectors(twist_iii, sites)[1])) == 1
        outcomes = []
        for sectors in (None, weight_sectors(twist_iii, sites)):
            try:
                dec = eig_general(a_iii, gap_rtol=1e-6, sectors=sectors)
                outcomes.append([dec.values, dec.right, dec.left, dec.residual_norm])
            except SovLabError as exc:
                outcomes.append(repr(exc))
        assert repr(outcomes[0]) == repr(outcomes[1])
        if not isinstance(outcomes[0], str):
            for x, y in zip(*outcomes):
                np.testing.assert_array_equal(x, y)

        a_i = chains["i"][1]
        for twist in (twist_ii, twist_iii):
            _, sec = sector_agreement(a_i, weight_sectors(twist, sites))
            assert sec.residual_norm <= 1e-14
        plain = eig_general(a_i)
        same = eig_general(a_i, sectors=weight_sectors(twist_iii, sites))
        for field in ("values", "right", "left", "residual_norm"):
            np.testing.assert_array_equal(getattr(same, field), getattr(plain, field))


def test_wrong_sector_map_shows_in_the_residual():
    """With the identity for W, the weight labels of a non-diagonal case-i
    twist cut T_1 along blocks it does not have: the residual against the
    untransformed matrix sees it."""
    twist, a = probe_chains(7, 3)["i"]
    w, labels = weight_sectors(twist, 3)
    assert np.abs(w - np.diag(np.diag(w))).max() > 0.1
    dec = eig_general(a, sectors=(np.eye(3), labels))
    assert dec.residual_norm >= 1e-6


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
