import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sovlab.errors import DetKZero
from sovlab.gl3_model import InterpolationWeights, TransferCache, TwistData
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import dressed_pair, flat_index
from sovlab.sov_measure import (
    appc_recursion_check,
    b_recursion,
    classify_pair,
    coeff_r0_closed_form,
    dual_bases,
    expansion_coefficients,
    export_matrix_csv,
    extract_coefficient,
    gram,
    diag_values,
    pair_support,
)
from sovlab.numkernel import vandermonde
from sovlab import suites
from sovlab.suites import _dual_coordinate_residuals

from conftest import make_params
from oracles import (
    DegenerateFamily,
    all_labels,
    c_scaling_scan,
    digit_ones,
    gram_entry,
    label_b_recursion,
    pair_substitution,
)


def test_classify_examples():
    assert classify_pair((2, 0, 1), (2, 0, 1)).kind == "diagonal"
    cls = classify_pair((0, 2), (1, 1))
    assert cls.kind == "offdiag" and cls.alpha == (0,) and cls.beta == (1,) and cls.pair_count == 1
    assert classify_pair((0, 1), (1, 0)).kind == "zero"


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 2)] * 3), st.tuples(*[st.integers(0, 2)] * 3))
def test_classify_selection_rule(h, k):
    """Any nonzero class conserves the total digit sum (the global charge
    sector); each pair move trades two 1s for a 0 and a 2.  The move, when it
    exists, is unique."""
    cls = classify_pair(h, k)
    if cls.kind != "zero":
        assert sum(h) == sum(k)
    if cls.kind == "offdiag":
        assert set(cls.alpha).isdisjoint(cls.beta)
        assert h == pair_substitution(k, cls.alpha, cls.beta)
        assert h.count(1) == k.count(1) - 2 * cls.pair_count


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_pair_support_matches_classify_pair(sites):
    support = pair_support(sites)
    labels = all_labels(sites)
    kinds = np.empty((len(labels), len(labels)), dtype=object)
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for h in labels:
        for k in labels:
            cls = classify_pair(h, k)
            kinds[flat_index(h), flat_index(k)] = cls.kind
            counts[flat_index(h), flat_index(k)] = cls.pair_count
    assert np.array_equal(support.diagonal, kinds == "diagonal")
    assert np.array_equal(support.offdiag, kinds == "offdiag")
    assert np.array_equal(support.zero, kinds == "zero")
    assert np.array_equal(support.pair_count, counts)
    assert not support.zero.flags.writeable and pair_support(sites) is support


def test_diag_values_match_per_label_formula(chain3):
    """All-label Vandermonde diagonal against the closed formula evaluated
    label by label with scalar arithmetic."""
    params = chain3[0]
    w = InterpolationWeights(params)
    expected = []
    for h in all_labels(params.sites):
        out = 1.0 + 0j
        zshift, yshift = [], []
        for a, d in enumerate(h):
            z, y = int(d >= 1), int(d == 2)
            zshift.append(params.xi_shifted(a, z))
            yshift.append(params.xi_shifted(a, y))
            out *= w.d(params.xi_shifted(a, 1)) / w.d(params.xi_shifted(a, 1 + z))
        expected.append(out * vandermonde(params.xi) ** 2
                        / (vandermonde(zshift) * vandermonde(yshift)))
    assert np.allclose(diag_values(params), expected, rtol=1e-14, atol=0)


def _perturbed_report(chain3, rtol):
    """Gram report of a pair whose zero cells no longer vanish."""
    params, _, _, pair = chain3
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(pair.left.shape) + 1j * rng.standard_normal(pair.left.shape)
    left = pair.left + 1e-3 * noise * np.abs(pair.left).max(axis=1)[:, None]
    return params, gram(dataclasses.replace(pair, left=left), params, rtol)


def test_gram_audit_matches_per_cell_loop(chain3):
    """Violations (in order) and coefficients equal a per-cell classify_pair
    loop, k outer and h inner."""
    params, report = _perturbed_report(chain3, rtol=1e-4)
    g, cosine, rtol, detk = report.gram, report.cosine, report.rtol, params.twist.det
    cscale = max(np.abs(cosine).max(), 1e-300)
    violations, coefficients = [], {}
    worst_zero = worst_off = 0.0
    for k in all_labels(params.sites):
        for h in all_labels(params.sites):
            cls = classify_pair(h, k)
            val = abs(cosine[flat_index(h), flat_index(k)])
            mag = val / cscale
            if h != k:
                worst_off = max(worst_off, mag)
            if cls.kind == "zero":
                worst_zero = max(worst_zero, mag)
                if val > rtol * cscale:
                    violations.append({"kind": "zero", "h": h, "k": k,
                                       "magnitude": mag})
            elif cls.kind == "offdiag":
                if val <= 1e3 * rtol * cscale:
                    violations.append({"kind": "offdiag", "h": h, "k": k,
                                       "magnitude": mag})
                coefficients[(flat_index(h), flat_index(k))] = complex(
                    g[flat_index(h), flat_index(k)] / (g[flat_index(k), flat_index(k)] * detk**cls.pair_count)
                )
    assert {v["kind"] for v in violations} == {"zero", "offdiag"}
    assert report.violations == violations
    assert list(report.coefficients.items()) == list(coefficients.items())
    assert report.max_zero_cosine == pytest.approx(worst_zero, rel=1e-15)
    assert report.max_offdiag_cosine == pytest.approx(worst_off, rel=1e-15)


def test_dual_sparsity_matches_per_label_loop(chain3):
    params, _, _, pair = chain3
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    norms = np.linalg.norm(pair.right, axis=0)  # coordinates on the unit-norm members
    worst = 0.0
    for h in all_labels(params.sites):
        coeffs = expansion_coefficients(report, dual)[:, flat_index(h)] * norms
        for t in all_labels(params.sites):
            if classify_pair(t, h).kind == "zero":
                worst = max(worst, abs(coeffs[flat_index(t)]) / np.abs(coeffs).max())
    assert worst > 0
    assert _dual_coordinate_residuals(pair, report, dual)[0] == pytest.approx(worst, rel=1e-15)


def test_gram_normalization(chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    origin = (0, 0)
    assert abs(gram_entry(report, origin, origin) - 1) < 1e-12


def test_gram_one_site_diagonal():
    """One-site couplings are (1, 1/2, 1/2): the shifted-node polynomial ratio
    d(xi - eta)/d(xi - 2 eta) equals 1/2 at a single site, confirmed both by
    the formula and by the dense pairing."""
    params, xyz, _ = make_params(71, 1)
    pair = dressed_pair(TransferCache(params), xyz)
    report = gram(pair, params)
    eta = params.eta
    ratio = (-eta) / (-2 * eta)
    np.testing.assert_allclose(report.diag, [1.0, ratio, ratio], atol=1e-12)
    off = report.gram - np.diag(report.diag)
    assert np.abs(off).max() <= 1e-12


def test_gram_two_site_pair_row(chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    k = (1, 1)
    nonzero = []
    for h in all_labels(2):
        if h == k:
            continue
        if abs(report.cosine[flat_index(h), flat_index(k)]) > 1e-9 * np.abs(report.cosine).max():
            nonzero.append(h)
    assert sorted(nonzero) == [(0, 2), (2, 0)]


def test_diag_formula_values(chain2):
    params, _, _, pair = chain2
    assert diag_values(params)[flat_index((0, 0))] == pytest.approx(1.0)
    report = gram(pair, params)
    assert report.max_diag_rel_err <= 1e-9


def test_diag_formula_matches_direct_n3(chain3):
    params, _, _, pair = chain3
    report = gram(pair, params)
    assert report.max_diag_rel_err <= 1e-9


def test_sparsity_sound_and_complete():
    """Across several admissible draws: zero-classified cells vanish, every
    pair-move cell is genuinely nonzero (hysteresis gap 1e3)."""
    for seed in range(80, 85):
        params, xyz, _ = make_params(seed, 2)
        pair = dressed_pair(TransferCache(params), xyz)
        report = gram(pair, params)
        assert not report.violations
        assert report.max_zero_cosine <= 1e-9


def test_extract_coefficient_and_detk_zero(chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    h, k = (0, 2), (1, 1)
    c = extract_coefficient(report, h, k)
    assert np.isfinite(c.real) and abs(c) > 0
    with pytest.raises(ValueError):
        extract_coefficient(report, (0, 0), (0, 0))
    kp, xyzd, _ = make_params(21, 2, invertible=False)
    dpair = dressed_pair(TransferCache(kp), xyzd)
    dreport = gram(dpair, kp)
    with pytest.raises(DetKZero):
        extract_coefficient(dreport, h, k)


def test_detk_to_zero_limit():
    """Couplings vanish linearly with det K while the extracted coefficient
    stays finite and converges."""
    params, xyz, s = make_params(91, 2)
    h, k = (0, 2), (1, 1)
    coefs = []
    mags = []
    for scale in (1e-2, 1e-4, 1e-6):
        eigs = list(params.twist.eigenvalues)
        eigs[0] = scale * eigs[0] / abs(eigs[0])
        p = params.with_twist(TwistData.from_eigenvalues(eigs, w=params.twist.w))
        pair = dressed_pair(TransferCache(p), xyz)
        report = gram(pair, p, rtol=1e-15)
        mags.append(abs(gram_entry(report, h, k)))
        coefs.append(extract_coefficient(report, h, k))
    # linear vanishing: each hundredfold cut of det K cuts the coupling a hundredfold
    for ratio in (mags[0] / mags[1], mags[1] / mags[2]):
        assert abs(ratio - 1e2) <= 1e-6 * 1e2
    assert abs(coefs[2] - coefs[1]) <= 1e-6 * abs(coefs[1])


def test_coeff_r0_closed_form_explicit():
    params, xyz, _ = make_params(95, 2)
    eta = params.eta
    x1, x2 = params.xi
    d = lambda lam: (lam - x1) * (lam - x2)
    qdet = ((x1 - x1 + eta) * (x1 - x1 - eta) * (x1 - x1 - 2 * eta)
            * (x1 - x2 + eta) * (x1 - x2 - eta) * (x1 - x2 - 2 * eta))
    want = d(x2 - eta) / d(x1 - eta) * qdet * eta**2 / (x1 - x2 + eta) ** 2
    assert coeff_r0_closed_form(params, ()) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("sites,rest", [(2, ()), (3, (0,)), (3, (1,)), (3, (2,))])
def test_coeff_r0_matches_gram(sites, rest):
    params, xyz, _ = make_params(97 + sites, sites)
    pair = dressed_pair(TransferCache(params), xyz)
    report = gram(pair, params)
    h = (0, 2) + rest
    k = (1, 1) + rest
    c_meas = extract_coefficient(report, h, k)
    c_form = coeff_r0_closed_form(params, rest)
    assert abs(c_meas - c_form) <= 1e-8 * abs(c_form)


def test_coefficient_detk_independence():
    """Two twists sharing (trace, second invariant) but not the determinant
    must give the same extracted coefficients."""
    params, xyz, _ = make_params(101, 2)
    a = params.twist.trace_inv
    b = params.twist.second_inv
    h, k = (0, 2), (1, 1)
    values = []
    for c in (params.twist.det, 1.7 * params.twist.det):
        roots = np.roots([1.0, -a, b, -c])
        tw = TwistData.from_eigenvalues(roots, w=params.twist.w)
        p = params.with_twist(tw)
        pair = dressed_pair(TransferCache(p), xyz)
        report = gram(pair, p)
        values.append(extract_coefficient(report, h, k))
    assert abs(values[0] - values[1]) <= 1e-6 * abs(values[0])


def test_scaling_scan_slopes(chain2):
    params, xyz, _, _ = chain2
    scan = c_scaling_scan(params, [params.twist.det * f for f in (0.5, 1.0, 2.0)], xyz)
    for (hf, kf), (slope, r) in scan["slopes"].items():
        assert abs(slope - r) <= 1e-3
    assert max(scan["coefficient_spread"].values()) <= 1e-6
    assert max(abs(d) for d in scan["diag_slopes"]) <= 1e-3


def test_scaling_scan_degenerate_family(chain2):
    params, xyz, _, _ = chain2
    a = params.twist.trace_inv
    b = params.twist.second_inv
    # pick c so that the cubic has a double root: shared root of the
    # derivative 3 t^2 - 2 a t + b
    tstar = (2 * a + np.sqrt(4 * a * a - 12 * b)) / 6
    cstar = tstar**3 - a * tstar**2 + b * tstar
    with pytest.raises(DegenerateFamily):
        c_scaling_scan(params, [cstar, 2 * cstar, 3 * cstar], xyz)


def test_dual_bases_inverse_and_orthogonality(chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    assert dual.inverse_residual <= 1e-8
    assert dual.ortho_residual <= 1e-7
    # measure shares the sparsity pattern of the coupling matrix
    cscale = np.abs(dual.measure).max()
    for h in all_labels(2):
        for k in all_labels(2):
            if classify_pair(h, k).kind == "zero":
                assert abs(dual.measure[flat_index(h), flat_index(k)]) <= 1e-9 * cscale


def test_dual_bases_detk_zero_coincide(det0_chain2):
    """With a vanishing determinant the coupling matrix is diagonal, so the
    dual vectors coincide with the SoV vectors themselves."""
    params, _, _, pair = det0_chain2
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    rel = np.abs(dual.p_vectors - pair.right).max() / np.abs(pair.right).max()
    assert rel <= 1e-9


def test_expansion_sparsity(chain3):
    params, _, _, pair = chain3
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    for h in ((1, 1, 0), (1, 1, 1)):
        coeffs = expansion_coefficients(report, dual)[:, flat_index(h)]
        allowed = {flat_index(h)}
        ones = digit_ones(h)
        for r in range(1, len(ones) // 2 + 1):
            for alpha in itertools.combinations(ones, r):
                rest = [o for o in ones if o not in alpha]
                for beta in itertools.combinations(rest, r):
                    allowed.add(flat_index(pair_substitution(h, alpha, beta)))
        for flat, c in enumerate(coeffs):
            if flat not in allowed:
                assert abs(c) <= 1e-8 * np.abs(coeffs).max()
        assert abs(coeffs[flat_index(h)] - 1) <= 1e-8


def test_b_recursion_single_pair(chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    h = (1, 1)
    bmap = label_b_recursion(report, h)
    assert set(bmap) == {((0,), (1,)), ((1,), (0,))}
    # base case equals minus the h-normalized coupling coefficient
    s = pair_substitution(h, (0,), (1,))
    cbar = gram_entry(report, s, h) / (gram_entry(report, s, s) * params.twist.det)
    assert bmap[((0,), (1,))] == pytest.approx(-cbar, rel=1e-10)
    dual = dual_bases(pair, report)
    coeffs = expansion_coefficients(report, dual)[:, flat_index(h)]
    for (alpha, beta), b in bmap.items():
        target = pair_substitution(h, alpha, beta)
        assert abs(coeffs[flat_index(target)] - params.twist.det * b) <= 1e-7 * np.abs(coeffs).max()


@pytest.mark.slow
def test_b_recursion_two_pairs_n4():
    params, xyz, _ = make_params(111, 4)
    pair = dressed_pair(TransferCache(params), xyz)
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    h = (1, 1, 1, 1)
    bmap = label_b_recursion(report, h)
    coeffs = expansion_coefficients(report, dual)[:, flat_index(h)]
    checked = 0
    for (alpha, beta), b in bmap.items():
        if len(alpha) != 2:
            continue
        target = pair_substitution(h, alpha, beta)
        pred = params.twist.det ** 2 * b
        assert abs(coeffs[flat_index(target)] - pred) <= 1e-7 * np.abs(coeffs).max()
        checked += 1
    assert checked == 6


def _b_recursion_per_label(report, h):
    """Reference for b_recursion: the bottom-up recursion of one label,
    enumerating its pair moves and their sub-moves with itertools and reading
    one coupling cell at a time."""
    c = report.params.twist.det

    def cbar(s, t, pair_count):
        return gram_entry(report, s, t) / (gram_entry(report, s, s) * c**pair_count)

    ones = digit_ones(h)
    out = {}
    for r in range(1, len(ones) // 2 + 1):
        for alpha in itertools.combinations(ones, r):
            rest = [o for o in ones if o not in alpha]
            for beta in itertools.combinations(rest, r):
                s = pair_substitution(h, alpha, beta)
                total = cbar(s, h, r)
                for rp in range(1, r):
                    for ap in itertools.combinations(alpha, rp):
                        for bp in itertools.combinations(beta, rp):
                            mid = pair_substitution(h, ap, bp)
                            total += out[(ap, bp)] * cbar(s, mid, r - rp)
                out[(alpha, beta)] = -total
    return out


@pytest.mark.parametrize("sites,seed", [(3, 11), (4, 111)])
def test_b_coefficients_match_per_label_recursion(sites, seed):
    """Every label with at least two ones: the level-by-level solve, and its
    columns read per label, agree with the per-label recursion, and B is the identity
    plus the pair-move cells."""
    params, xyz, _ = make_params(seed, sites)
    pair = dressed_pair(TransferCache(params), xyz)
    report = gram(pair, params)
    b = b_recursion(report)
    support = pair_support(sites)
    assert np.all(np.diagonal(b) == 1) and np.all(b[support.zero] == 0)
    checked = 0
    for h in all_labels(sites):
        if len(digit_ones(h)) < 2:
            continue
        want = _b_recursion_per_label(report, h)
        got = label_b_recursion(report, h)
        assert set(got) == set(want)
        assert np.count_nonzero(support.offdiag[:, flat_index(h)]) == len(want)
        scale = max(abs(v) for v in want.values())
        for move, val in want.items():
            assert abs(b[flat_index(pair_substitution(h, *move)), flat_index(h)] - val) <= 1e-12 * scale
            assert abs(got[move] - val) <= 1e-12 * scale
        checked += 1
    assert checked == {3: 7, 4: 33}[sites]


def test_b_recursion_residual_detects_wrong_coefficients(chain3, monkeypatch):
    """The dual coordinates on the pair moves match det K^r B; with the moves
    left out of B (B = I) the residual reads order one."""
    params, _, _, pair = chain3
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    assert _dual_coordinate_residuals(pair, report, dual)[1] <= 1e-9
    monkeypatch.setattr(suites, "b_recursion", lambda report: np.eye(params.dim))
    assert _dual_coordinate_residuals(pair, report, dual)[1] > 1e-3


def test_b_coefficients_detk_zero(det0_chain2):
    params, _, _, pair = det0_chain2
    with pytest.raises(DetKZero):
        b_recursion(gram(pair, params))


@pytest.mark.parametrize("sites,rest", [(2, ()), (3, (0,)), (3, (2,))])
def test_appc_recursion_seed(sites, rest):
    params, xyz, _ = make_params(120 + sites, sites)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    out = appc_recursion_check(cache, 0, pair, cache.t2(params.xi[1]), h_rest=rest)
    assert out["seed"] <= 1e-9


@pytest.mark.slow
def test_appc_recursion_two_pair_n4():
    params, xyz, _ = make_params(131, 4)
    cache = TransferCache(params)
    pair = dressed_pair(cache, xyz)
    out = appc_recursion_check(cache, 1, pair, cache.t2(params.xi[1]))
    assert out["two_pair"] <= 1e-8


def test_export_csv_roundtrip(tmp_path, chain2):
    params, _, _, pair = chain2
    report = gram(pair, params)
    path = tmp_path / "gram.csv"
    export_matrix_csv(report.gram, path)
    import csv

    rows = list(csv.reader(open(path)))
    assert len(rows) == params.dim + 1
    re, im = (float(t) for t in rows[1][1].split(","))
    assert complex(re, im) == pytest.approx(report.gram[0, 0])


def test_diag_twist_independence(chain2):
    """The diagonal couplings depend only on (eta, xi), not on the twist."""
    from sovlab.gl3_model import TwistData
    from sovlab.sampling import ParameterSampler

    params, xyz, _, pair = chain2
    report = gram(pair, params)
    s = ParameterSampler(997)
    other = params.with_twist(
        TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
    )
    pair2 = dressed_pair(TransferCache(other), xyz)
    diag2 = np.diagonal(pair2.left @ pair2.right)
    assert np.max(np.abs(diag2 - report.diag) / np.abs(report.diag)) <= 1e-9


def test_sparsity_three_sites(chain3):
    params, _, _, pair = chain3
    report = gram(pair, params)
    assert not report.violations
    assert report.max_zero_cosine <= 1e-9
