"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here; random parameters always come from the
seeded rational-grid sampler and every sampled criterion runs on at least
three seeds.
"""

import itertools
import json
import time

import numpy as np
import pytest

from sovlab import gl2_model
from sovlab.cli import resolve_config, run
from sovlab.det0_spectrum import (
    SeparateState,
    eigensolve_sov,
    interpolated_action_check,
    norm_determinant,
    norm_direct,
    ortho_suite_det0,
    scalar_product_determinant,
    separate_overlap_direct,
    zero_pattern,
)
from sovlab.gl3_model import (
    ModelParams,
    TransferCache,
    TwistData,
    check_yang_baxter,
    fusion_residuals,
    product_formula_check,
    quantum_determinant,
    rtt_residual,
    scalar_yb_residual,
    t2_interpolated,
)
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import (
    TernaryIndex,
    dressed_pair,
    label_digits,
    reference_vector_closed,
    reference_vector_solve,
)
from sovlab.sov_measure import (
    appc_recursion_check,
    b_recursion,
    c_scaling_scan,
    coeff_r0_closed_form,
    diag_formula,
    dual_bases,
    expansion_coefficients,
    extract_coefficient,
    gram,
)
from sovlab.tt_charges import build_tt, fusion_residuals_tt, tt_sov_bases

from conftest import make_params

SEEDS = (7, 11, 13)


def _report(num, ok, detail):
    print(f"\ncriterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_exchange_relations():
    start = time.perf_counter()
    worst = 0.0
    for seed in SEEDS:
        s = ParameterSampler(seed)
        worst = max(worst, check_yang_baxter(s.complex_rational(), s.complex_rational(), s.shift()))
        for sites in (2, 3):
            params, _, _ = make_params(seed, sites)
            worst = max(worst, scalar_yb_residual(params.twist.k_matrix,
                                                  s.complex_rational(), params.eta))
            if sites == 2:
                worst = max(worst, rtt_residual(params, s.complex_rational(),
                                                s.complex_rational()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(1, ok, f"Yang-Baxter/RTT/scalar residual {worst:.2e} (tol 1e-11), {elapsed:.2f}s < 1s")


def test_criterion_02_quantum_determinant():
    start = time.perf_counter()
    worst = 0.0
    for seed in SEEDS:
        for sites in (1, 2, 3):
            params, _, _ = make_params(seed, sites)
            cache = TransferCache(params)
            s = ParameterSampler(seed + 500)
            for _ in range(5):
                lam = s.spectral_point(params.xi, params.eta)
                pred = quantum_determinant(params, lam)
                resid = np.abs(cache.t3(lam) - pred * np.eye(params.dim)).max() / abs(pred)
                worst = max(worst, resid)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, ok, f"quantum determinant closed form {worst:.2e} (tol 1e-10), {elapsed:.2f}s < 5s")


def test_criterion_03_fusion_and_interpolation():
    worst_fusion = 0.0
    worst_interp = 0.0
    for seed in SEEDS:
        for sites in (2, 3):
            params, _, _ = make_params(seed, sites)
            cache = TransferCache(params)
            table = fusion_residuals(params, cache)
            worst_fusion = max(worst_fusion, max(table["fusion"].values()),
                               max(table["central_zero"].values()))
            s = ParameterSampler(seed + 600)
            for _ in range(2):
                lam = s.complex_rational()
                t2 = cache.t2(lam)
                worst_interp = max(
                    worst_interp,
                    np.abs(t2_interpolated(params, lam, cache) - t2).max()
                    / np.abs(t2).max(),
                )
    ok = worst_fusion <= 1e-10 and worst_interp <= 1e-9
    _report(3, ok, f"fusion/central zeros {worst_fusion:.2e} (tol 1e-10), "
                   f"degree-2N reconstruction {worst_interp:.2e} (tol 1e-9)")


def test_criterion_04_basis_ranks():
    worst = np.inf
    retries = 0
    for seed in SEEDS:
        for sites in (2, 3):
            for case in ("i", "ii", "iii"):
                # genericity failures resample with the seed advanced (max 5)
                for attempt in range(6):
                    s = ParameterSampler(seed + 100 * attempt)
                    eta = s.shift()
                    w = s.invertible3()
                    if case == "i":
                        twist = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=w)
                    elif case == "ii":
                        twist = TwistData.from_jordan(
                            w, np.array([[0.8 + 0.3j, 1, 0], [0, 0.8 + 0.3j, 0],
                                         [0, 0, -0.9 + 0.5j]])
                        )
                    else:
                        twist = TwistData.from_jordan(
                            w, np.array([[0.7 - 0.4j, 1, 0], [0, 0.7 - 0.4j, 1],
                                         [0, 0, 0.7 - 0.4j]])
                        )
                    params = ModelParams(sites, eta, s.inhomogeneities(sites, eta), twist)
                    ratio = min(*dressed_pair(params, s.reference3()).rank_ratios())
                    if ratio > 1e-9:
                        worst = min(worst, ratio)
                        break
                    retries += 1
                else:
                    worst = 0.0
    ok = worst > 1e-9 and retries <= 5 * len(SEEDS)
    _report(4, ok, f"smallest normalized singular-value ratio {worst:.2e} > 1e-9 "
                   f"(three twist classes, N <= 3, {retries} resamples)")


def test_criterion_05_reference_duality():
    worst_dual = 0.0
    worst_local = 0.0
    for seed in SEEDS:
        for sites in (2, 3):
            params, xyz, _ = make_params(seed, sites, wild_w=True)
            pair = dressed_pair(params, xyz)
            resid = np.abs(pair.left @ pair.ref_vector - np.eye(params.dim)[0]).max()
            worst_dual = max(worst_dual, resid)
            # local three-term conditions per site, against a 3x3 solve
            twist = params.twist
            v = np.array(xyz)
            mat = np.vstack([v @ twist.k_adjugate, v, v @ twist.k_jordan])
            vec = reference_vector_closed(xyz, twist, params)
            factors = []
            for a in range(params.sites):
                t = np.zeros(3, dtype=complex)
                dd = 1.0 + 0j
                for shift in (1, 2):
                    for x in params.xi:
                        dd *= params.xi[a] - shift * params.eta - x
                t[0] = 1.0 / dd
                factors.append(twist.w @ np.linalg.solve(mat, t))
            oracle = factors[0]
            for f in factors[1:]:
                oracle = np.kron(f, oracle)
            worst_local = max(
                worst_local, np.abs(vec - oracle).max() / np.abs(oracle).max()
            )
    ok = worst_dual <= 1e-10 and worst_local <= 1e-11
    _report(5, ok, f"duality of the reference vector {worst_dual:.2e} (tol 1e-10), "
                   f"local closed form {worst_local:.2e} (tol 1e-11)")


def test_criterion_06_coupling_pattern_n3():
    start = time.perf_counter()
    worst_zero = 0.0
    min_off = np.inf
    worst_diag = 0.0
    for seed in SEEDS:
        params, xyz, _ = make_params(seed, 3)
        pair = dressed_pair(params, xyz)
        report = gram(pair.left, pair.right, params)
        worst_zero = max(worst_zero, report.max_zero_cosine)
        worst_diag = max(worst_diag, report.max_diag_rel_err)
        cscale = np.abs(report.cosine).max()
        for (hf, kf) in report.coefficients:
            min_off = min(min_off, abs(report.cosine[hf, kf]) / cscale)
    elapsed = time.perf_counter() - start
    ok = worst_zero <= 1e-9 and min_off > 1e-6 and worst_diag <= 1e-8 and elapsed < 30
    _report(6, ok, f"729-cell pattern: zeros {worst_zero:.2e} <= 1e-9 scale, "
                   f"couplings {min_off:.2e} > 1e-6 scale, diagonal {worst_diag:.2e} "
                   f"(tol 1e-8), {elapsed:.1f}s < 30s")


def test_criterion_07_determinant_scaling():
    worst_slope = 0.0
    worst_spread = 0.0
    for seed in SEEDS:
        for sites in (2, 4):
            params, xyz, _ = make_params(seed, sites)
            factors = (0.5, 1.0, 2.0)
            scan = c_scaling_scan(params, [params.twist.det * f for f in factors], xyz)
            for (hf, kf), (slope, r) in scan["slopes"].items():
                if r <= 2:
                    worst_slope = max(worst_slope, abs(slope - r))
            worst_spread = max(worst_spread, max(scan["coefficient_spread"].values()))
    ok = worst_slope <= 1e-3 and worst_spread <= 1e-6
    _report(7, ok, f"det-scan slopes off by {worst_slope:.2e} (tol 1e-3), "
                   f"coefficient drift {worst_spread:.2e} (tol 1e-6)")


def test_criterion_08_single_pair_coefficient():
    worst = 0.0
    for seed in SEEDS:
        for sites in (2, 3):
            params, xyz, _ = make_params(seed, sites)
            pair = dressed_pair(params, xyz)
            report = gram(pair.left, pair.right, params)
            for rest in itertools.product((0, 1, 2), repeat=sites - 2):
                h = TernaryIndex((0, 2) + rest)
                k = TernaryIndex((1, 1) + rest)
                got = extract_coefficient(report, h, k)
                want = coeff_r0_closed_form(params, rest)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-8
    _report(8, ok, f"single-pair coefficient closed form vs extraction {worst:.2e} (tol 1e-8)")


def test_criterion_09_inverse_measure_and_recursions():
    worst_inv = 0.0
    worst_b = 0.0
    worst_rec = 0.0
    for seed in SEEDS:
        params, xyz, _ = make_params(seed, 2)
        cache = TransferCache(params)
        pair = dressed_pair(params, xyz, cache)
        report = gram(pair.left, pair.right, params)
        worst_inv = max(worst_inv, dual_bases(pair, report).inverse_residual)
        worst_rec = max(worst_rec, appc_recursion_check(params, 0, xyz, cache=cache)["seed"])
        params3, xyz3, _ = make_params(seed, 3)
        worst_rec = max(
            worst_rec, appc_recursion_check(params3, 0, xyz3, h_rest=(seed % 3,))["seed"]
        )
    # four-site checks once per seed set (heaviest objects)
    for seed in SEEDS:
        params4, xyz4, _ = make_params(seed, 4)
        cache4 = TransferCache(params4)
        pair4 = dressed_pair(params4, xyz4, cache4)
        report4 = gram(pair4.left, pair4.right, params4)
        dual4 = dual_bases(pair4, report4)
        worst_inv = max(worst_inv, dual4.inverse_residual)
        h = TernaryIndex((1, 1, 1, 1))
        bmap = b_recursion(report4, h)
        coeffs = expansion_coefficients(report4, dual4, h)
        for (alpha, beta), b in bmap.items():
            target = h.pair_substitution(alpha, beta)
            pred = params4.twist.det ** len(alpha) * b
            worst_b = max(worst_b, abs(coeffs[target.flat] - pred) / np.abs(coeffs).max())
        worst_rec = max(worst_rec, appc_recursion_check(params4, 1, xyz4, cache=cache4)["two_pair"])
    ok = worst_inv <= 1e-8 and worst_b <= 1e-7 and worst_rec <= 1e-8
    _report(9, ok, f"inverse measure {worst_inv:.2e} (tol 1e-8), two-pair dual expansion "
                   f"{worst_b:.2e} (tol 1e-7), coupling recursions {worst_rec:.2e} (tol 1e-8)")


def test_criterion_10_orthogonal_regime():
    worst_off = 0.0
    worst_diag = 0.0
    worst_act = 0.0
    for seed in SEEDS:
        for sites in (2, 3):
            params, xyz, _ = make_params(seed, sites, invertible=False)
            cache = TransferCache(params)
            out = ortho_suite_det0(params, xyz, cache=cache)
            worst_off = max(worst_off, out["offdiag_cosine"])
            worst_diag = max(worst_diag, out["diag_rel_err"])
        params, xyz, _ = make_params(seed, 2, invertible=False)
        cache = TransferCache(params)
        gen = np.random.default_rng(seed)
        s = ParameterSampler(seed + 900)
        for side in ("left", "right"):
            for _ in range(10):
                h = TernaryIndex(tuple(gen.integers(0, 3, params.sites).tolist()))
                which = int(gen.integers(1, 3))
                lam = s.spectral_point(params.xi, params.eta)
                worst_act = max(
                    worst_act,
                    interpolated_action_check(params, h, which, side, xyz, [lam], cache),
                )
    ok = worst_off <= 1e-9 and worst_diag <= 1e-8 and worst_act <= 1e-8
    _report(10, ok, f"zero-determinant regime: couplings diagonal to {worst_off:.2e} "
                    f"(tol 1e-9), measure {worst_diag:.2e} (tol 1e-8), local-shift "
                    f"actions {worst_act:.2e} (tol 1e-8)")


def test_criterion_11_factorization_and_determinant_overlaps():
    start = time.perf_counter()
    worst_fact = 0.0
    worst_ov = 0.0
    for seed in SEEDS:
        for sites, n_alpha in ((2, 20), (3, 5)):
            params, xyz, _ = make_params(seed, sites, invertible=False)
            cache = TransferCache(params)
            states, pair, _ = eigensolve_sov(params, xyz, cache=cache)
            worst_fact = max(worst_fact, max(st.factorization_residual for st in states))
            gen = np.random.default_rng(seed + sites)
            for st in states:
                zero_pattern(st, params, cache)
                nd = norm_determinant(st, params, cache)
                direct = norm_direct(st)
                worst_ov = max(worst_ov, abs(nd - direct) / abs(direct))
            for _ in range(n_alpha):
                st = states[int(gen.integers(0, len(states)))]
                alpha = SeparateState.random(gen, sites)
                det_val = scalar_product_determinant(alpha, st, params)
                direct = separate_overlap_direct(alpha, st, params)
                worst_ov = max(worst_ov, abs(det_val - direct) / abs(direct))
    elapsed = time.perf_counter() - start
    ok = worst_fact <= 1e-7 and worst_ov <= 1e-7 and elapsed < 120
    _report(11, ok, f"wave functions factorize to {worst_fact:.2e} (tol 1e-7), determinant "
                    f"overlaps match to {worst_ov:.2e} (tol 1e-7), {elapsed:.1f}s < 120s")


def test_criterion_12_conserved_charge_bases():
    worst_fus = 0.0
    worst_gram = 0.0
    worst_det = 0.0
    for seed in SEEDS:
        params, xyz, _ = make_params(seed, 2)
        family = build_tt(params)
        worst_fus = max(worst_fus, max(fusion_residuals_tt(family).values()))
        tpair = tt_sov_bases(family, xyz)
        report = gram(tpair.left, tpair.right, family.khat_params)
        worst_gram = max(worst_gram, report.max_offdiag_cosine, report.max_diag_rel_err)
        # determinant overlap formulas in the charge bases
        kp = family.khat_params
        gen = np.random.default_rng(seed)
        one_flat = TernaryIndex((1, 1)).flat
        for a in (0, 4, 8):
            st = family.khat_states[a]
            zero_pattern(st, kp)
            col = family.right[:, a]
            col = col / (tpair.left[one_flat] @ col)
            alpha = SeparateState.random(gen, 2)
            det_val = scalar_product_determinant(alpha, st, kp)
            direct = sum(
                alpha.coordinate(h) * (tpair.left[h.flat] @ col) / diag_formula(kp, h)
                for h in TernaryIndex.all(2)
            )
            worst_det = max(worst_det, abs(det_val - direct) / abs(direct))
    ok = worst_fus <= 1e-8 and worst_gram <= 1e-8 and worst_det <= 1e-7
    _report(12, ok, f"charge fusion {worst_fus:.2e} (tol 1e-8), charge-basis couplings "
                    f"{worst_gram:.2e} (tol 1e-8), determinant overlaps {worst_det:.2e} "
                    f"(tol 1e-7)")


def test_criterion_13_product_formula():
    worst = 0.0
    for seed in SEEDS:
        params, _, _ = make_params(seed, 3)
        for m in (1, 2, 3):
            worst = max(worst, product_formula_check(params, tuple(range(1, m + 1))))
        worst = max(worst, product_formula_check(params, (1, 3)))
    ok = worst <= 1e-10
    _report(13, ok, f"transfer product closed formula {worst:.2e} (tol 1e-10, N=3, M=1..3)")


def test_criterion_14_rank_one_yardstick():
    worst_meas = 0.0
    worst_rep = 0.0
    min_overlap = np.inf
    for seed in SEEDS:
        for sites in (2, 3):
            s = ParameterSampler(seed)
            eta = s.shift()
            params = gl2_model.Gl2Params(
                sites, eta, s.inhomogeneities(sites, eta), s.gl2_twist(), s.reference2()
            )
            cache = gl2_model.Gl2TransferCache(params)
            left, right, _ = gl2_model.gl2_bases(params, cache)
            g = left @ right
            for fh, h in enumerate(label_digits(sites, 2)):
                for fk in range(params.dim):
                    pred = gl2_model.coupling_prediction(params, h) if fh == fk else 0.0
                    worst_meas = max(worst_meas, abs(g[fh, fk] - pred) / np.abs(g).max())
            reps = gl2_model.gl2_eigen_reps(params, cache=cache)
            worst_rep = max(worst_rep, reps["reconstruction_residual"],
                            reps["detk_rep_residual"])
            min_overlap = min(min_overlap, reps["min_overlap"])
    ok = worst_meas <= 1e-9 and worst_rep <= 1e-7 and min_overlap > 1e-9
    _report(14, ok, f"rank-one measure {worst_meas:.2e} (tol 1e-9), eigenstate "
                    f"representations {worst_rep:.2e} (tol 1e-7), reference overlaps "
                    f">= {min_overlap:.2e} != 0")


def test_criterion_15_determinism_and_budget(tmp_path):
    start = time.perf_counter()
    reports = []
    for out in ("a", "b"):
        cfg = resolve_config(None, {"sites": 2, "seed": 7, "out": str(tmp_path / out)})
        run(cfg, echo=lambda *a, **k: None)
        blob = json.loads((tmp_path / out / "report.json").read_text())
        blob.pop("timings")
        blob["config"].pop("out")
        reports.append(json.dumps(blob, sort_keys=True))
    elapsed = time.perf_counter() - start
    identical = reports[0] == reports[1]
    all_passed = json.loads(reports[0])["all_passed"]
    ok = identical and all_passed and elapsed < 600
    _report(15, ok, f"repeat runs bit-identical={identical}, default suite passes twice "
                    f"in {elapsed:.1f}s < 600s")
