import json
from collections import Counter

import numpy as np
import pytest

from sovlab import gl2_model
from sovlab.cli import resolve_config, run
from sovlab.errors import DegenerateReference, DetKZero
from sovlab.gl2_model import (
    coupling_residuals,
    coupling_values,
    gl2_bases,
    gl2_eigen_reps,
    gl2_transfer,
    identity_decomposition_residual,
    pairing_form,
    qdet_scalar,
    reference_states,
)
from sovlab.gl3_model import ModelParams, TransferCache, on_legs, r_matrix
from sovlab.sampling import ParameterSampler
from sovlab.sov_bases import label_digits
from sovlab.suites import Workspace

from oracles import coupling_prediction


def make_gl2(seed, sites):
    """A sampled gl(2) chain as ``(cache, ref)``."""
    s = ParameterSampler(seed)
    eta = s.shift()
    xi = s.inhomogeneities(sites, eta)
    return TransferCache(ModelParams(sites, eta, xi, s.gl2_twist())), s.reference2()


@pytest.fixture(scope="module")
def gl2_chain3():
    return make_gl2(401, 3)


def test_one_site_transfer_closed_form():
    params = make_gl2(403, 1)[0].params
    lam = 0.3 + 0.8j
    want = (lam - params.xi[0]) * np.trace(params.k_matrix) * np.eye(2) \
        + params.eta * params.k_matrix
    np.testing.assert_allclose(gl2_transfer(params, lam), want, atol=1e-13)


def test_transfer_matches_dense_monodromy_trace():
    """tr_a K_a R_{a,3} R_{a,2} R_{a,1} built densely on aux (x) three sites."""
    params = make_gl2(405, 3)[0].params
    n, lam, eta = params.sites, 0.3 + 0.8j, params.eta
    mono = np.kron(params.k_matrix, np.eye(params.dim))
    for a in range(n, 0, -1):
        r = r_matrix(lam - params.xi[a - 1], eta, 2)
        mono = on_legs(mono, r, (0, 1 + (n - a)), d=2)
    want = mono.reshape(2, params.dim, 2, params.dim).trace(axis1=0, axis2=2)
    got = gl2_transfer(params, lam)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_transfer_commutation(gl2_chain3):
    cache, _ = gl2_chain3
    s = ParameterSampler(404)
    for _ in range(3):
        a = cache.t1(s.complex_rational())
        b = cache.t1(s.complex_rational())
        assert np.abs(a @ b - b @ a).max() <= 1e-11 * np.abs(a @ b).max()


def test_fusion_scalar_centrality(gl2_chain3):
    cache, _ = gl2_chain3
    for a in range(cache.params.sites):
        scalar, resid, closed = qdet_scalar(cache, a)
        assert resid <= 1e-10
        assert abs(scalar - closed) <= 1e-10 * abs(closed)


def test_pairing_form_antiperiodic():
    """The antiperiodic twist with reference (1, 0) has unit pairing form."""
    s = ParameterSampler(405)
    eta = s.shift()
    xi = s.inhomogeneities(2, eta)
    params = ModelParams(2, eta, xi, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pairing_form(params.k_matrix, (1.0, 0.0)) == 1.0


def test_params_validation():
    s = ParameterSampler(406)
    eta = s.shift()
    xi = s.inhomogeneities(2, eta)
    with pytest.raises(ValueError):
        ModelParams(2, eta, xi, 2.5 * np.eye(2))
    # reference aligned so that the pairing form vanishes: b x^2 = 0 with
    # K = [[0,0],[1,0]] means x = ... pick K making n_K(1,0) = b = 0
    cache = TransferCache(ModelParams(2, eta, xi, np.array([[0.0, 0.0], [1.0, 0.5]])))
    with pytest.raises(DegenerateReference, match="vanishing pairing form"):
        reference_states(cache, (1.0, 0.0))


MALFORMED_CHAINS = {
    "three-sites-two-xi": ((3, 0.5, (0.1, 0.9), [[1, 0.5], [0.25, 2]]), "inhomogeneities"),
    "zero-eta": ((2, 0, (0.1, 0.9), [[1, 0.5], [0.25, 2]]), "eta must be nonzero"),
    "zero-sites": ((0, 0.5, (), [[1, 0.5], [0.25, 2]]), "inhomogeneities"),
    "twist-3x3": ((2, 0.5, (0.1, 0.9), np.diag([1.0, 2.0, 3.0])), "finite 2x2"),
    "twist-not-finite": ((2, 0.5, (0.1, 0.9), [[1, np.nan], [0, 2]]), "finite 2x2"),
}


@pytest.mark.parametrize("chain, message", MALFORMED_CHAINS.values(), ids=MALFORMED_CHAINS.keys())
def test_model_params_reject_malformed_gl2_chains(chain, message):
    with pytest.raises(ValueError, match=message):
        ModelParams(*chain)


def test_sampled_gl2_chain_given_as_config_reports_the_same_numbers():
    """Seed 7's sampled eta, xi, twist and reference pair, written into a
    config, reach the same chain and pair: the results are identical."""
    cache, ref, _ = Workspace("gl2", 3, 7).gl2()
    params = cache.params

    def pair(z):
        return [z.real, z.imag]
    explicit = {"eta": pair(params.eta), "xi": [pair(x) for x in params.xi],
                "twist": {"matrix": [[pair(z) for z in row] for row in params.k_matrix]},
                "reference": [pair(complex(c)) for c in ref]}
    base = {"algebra": "gl2", "sites": 3, "seed": 7}
    sampled = run(resolve_config(None, base), echo=lambda *a, **k: None)
    given = run(resolve_config(None, {**base, **explicit}), echo=lambda *a, **k: None)
    assert [r["task"] for r in given["results"]] == ["gram", "measure", "gl2"]
    assert json.dumps(given["results"], sort_keys=True) == \
        json.dumps(sampled["results"], sort_keys=True)


def test_orthogonal_measure(gl2_chain3):
    cache, ref = gl2_chain3
    params = cache.params
    left, right, _ = gl2_bases(cache, ref)
    g = left @ right
    for fh, h in enumerate(label_digits(params.sites, 2)):
        for fk in range(params.dim):
            got = g[fh, fk]
            if fh == fk:
                want = coupling_prediction(params, h)
                assert abs(got - want) <= 1e-9 * abs(want)
            else:
                assert abs(got) <= 1e-9 * np.abs(g).max()


def _row_by_row_bases(cache, ref):
    """Every label takes its own products site by site, dividing by a(xi_a)
    after each matrix product, with no sharing between labels."""
    params = cache.params
    row0, ones_col, _ = reference_states(cache, ref)
    a_xi = [np.prod([x - y + params.eta for y in params.xi]) for x in params.xi]
    t_at = [cache.t1(x) for x in params.xi]
    t_sh = [cache.t1(x - params.eta) for x in params.xi]
    left = np.empty((params.dim, params.dim), dtype=complex)
    right = np.empty((params.dim, params.dim), dtype=complex)
    for flat in range(params.dim):
        row, col = row0.copy(), ones_col.copy()
        for a in range(params.sites):
            if (flat >> a) & 1:
                row = row @ t_at[a] / a_xi[a]
            else:
                col = t_sh[a] @ col / a_xi[a]
        left[flat] = row
        right[:, flat] = col
    return left, right


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_gl2_bases_match_row_by_row_loop(sites):
    cache, ref = make_gl2(409, sites)
    left, right, _ = gl2_bases(cache, ref)
    want_left, want_right = _row_by_row_bases(cache, ref)
    row_err = np.abs(left - want_left).max(axis=1) / np.abs(want_left).max(axis=1)
    col_err = np.abs(right - want_right).max(axis=0) / np.abs(want_right).max(axis=0)
    assert row_err.max() <= 1e-13 and col_err.max() <= 1e-13


@pytest.mark.parametrize("sites", [1, 2, 3, 4])
def test_coupling_values_match_prediction(sites):
    params = make_gl2(410, sites)[0].params
    got = coupling_values(params)
    assert got.shape == (params.dim,)
    for flat, h in enumerate(label_digits(sites, 2)):
        want = coupling_prediction(params, h)
        assert abs(got[flat] - want) <= 1e-14 * abs(want)


def test_detk_zero_twist():
    """A singular twist makes the eigenstate representations raise DetKZero;
    the coupling matrix and the identity decomposition still hold."""
    s = ParameterSampler(409)
    eta = s.shift()
    xi = s.inhomogeneities(3, eta)
    k = np.array([[1.0, 0.5], [0.25, 0.125]])
    params = ModelParams(3, eta, xi, k)
    cache, ref = TransferCache(params), s.reference2()
    assert np.linalg.det(params.k_matrix) == 0
    bases = gl2_bases(cache, ref)
    with pytest.raises(DetKZero):
        gl2_eigen_reps(cache, bases)
    _, cells, diagonal = coupling_residuals(cache, bases)
    assert cells <= 1e-12 and diagonal <= 1e-12
    assert identity_decomposition_residual(cache, bases) <= 1e-12


def test_detk_zero_twist_run_reports_error(tmp_path):
    """A singular twist fails only the gl2 suite, with the error recorded in
    the written report; gram and measure still pass."""
    cfg = resolve_config(None, {"algebra": "gl2", "sites": 3, "seed": 409, "out": str(tmp_path),
                                "twist": {"matrix": [[1, 0.5], [0.25, 0.125]]}})
    run(cfg, echo=lambda *a, **k: None)
    report = json.loads((tmp_path / "report.json").read_text())
    results = {r["task"]: r for r in report["results"]}
    assert results["gram"]["passed"] and results["measure"]["passed"]
    assert not results["gl2"]["passed"]
    assert results["gl2"]["details"]["error"].startswith("DetKZero")


def test_identity_decomposition(gl2_chain3):
    cache, ref = gl2_chain3
    assert identity_decomposition_residual(cache, gl2_bases(cache, ref)) <= 1e-8


def test_reference_normalizations(gl2_chain3):
    """The all-ones and all-zeros tensor vectors reproduce the stated dual
    couplings against the left family."""
    cache, ref = gl2_chain3
    params = cache.params
    left, right, zeros_col = gl2_bases(cache, ref)
    _, ones_col, _ = reference_states(cache, ref)
    v0 = coupling_prediction(params, (0,) * params.sites)  # 1 / V(xi)^2
    for flat, h in enumerate(label_digits(params.sites, 2)):
        want_ones = 0.0
        if all(d == 1 for d in h):
            want_ones = coupling_prediction(params, h)
        got = left[flat] @ ones_col
        assert abs(got - want_ones) <= 1e-10 * abs(coupling_prediction(params, h))
        want_zeros = v0 if all(d == 0 for d in h) else 0.0
        gotz = left[flat] @ zeros_col
        assert abs(gotz - want_zeros) <= 1e-10 * abs(v0)


def test_eigen_representations_one_site():
    cache, ref = make_gl2(407, 1)
    out = gl2_eigen_reps(cache, gl2_bases(cache, ref))
    assert out["reconstruction_residual"] <= 1e-12
    assert out["min_overlap"] > 1e-9


def test_eigen_representations_three_sites(gl2_chain3):
    cache, ref = gl2_chain3
    out = gl2_eigen_reps(cache, gl2_bases(cache, ref))
    assert out["reconstruction_residual"] <= 1e-7
    assert out["detk_rep_residual"] <= 1e-7
    assert out["min_overlap"] > 1e-9
    assert len(out["states"]) == cache.params.dim


def test_gl2_suites_build_bases_and_coupling_once(monkeypatch):
    """The gram, measure and gl2 suites of one run share one basis build and
    one coupling matrix."""
    calls = Counter()
    for name in ("gl2_bases", "coupling_residuals"):
        def counted(*args, _name=name, _fn=getattr(gl2_model, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gl2_model, name, counted)
    cfg = resolve_config(None, {"algebra": "gl2", "sites": 3, "seed": 4})
    report = run(cfg, echo=lambda *a, **k: None)
    assert [r["task"] for r in report["results"]] == ["gram", "measure", "gl2"]
    assert report["all_passed"]
    assert calls == {"gl2_bases": 1, "coupling_residuals": 1}


@pytest.mark.parametrize("k", [[[0, 0], [1, 0.5]], [[1, 0], [1, 2]]], ids=["det-k-zero", "det-k-two"])
def test_degenerate_reference_fails_every_gl2_suite_alike(k):
    """A reference pair with a vanishing pairing form is an error of the pair
    builders, reported by gram, measure and gl2 with one text, also when
    det K = 0 would stop the gl2 suite."""
    cfg = resolve_config(None, {"algebra": "gl2", "sites": 2, "seed": 3,
                                "twist": {"matrix": k}, "reference": [1, 0]})
    report = run(cfg, echo=lambda *a, **k: None)
    errors = {r["task"]: r["details"]["error"] for r in report["results"]}
    assert errors == dict.fromkeys(
        ["gram", "measure", "gl2"],
        "DegenerateReference: reference pair gives a vanishing pairing form")
