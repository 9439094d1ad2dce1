"""Every report residual but the four the README's Conventions name is
``rel_residual`` in one of its three modes; each converted field must keep
the bits of its written-out form in ``oracles``."""

import dataclasses

import numpy as np
import pytest

from sovlab import suites
from sovlab.gl2_model import (
    coupling_residuals,
    coupling_values,
    identity_decomposition_residual,
    shifted_vandermonde,
)
from sovlab.gl3_model import fusion_residuals
from sovlab.numkernel import rel_residual, vandermonde
from sovlab.sov_bases import dressed_pair
from sovlab.sov_measure import b_recursion, dual_bases, gram, pair_support
from sovlab.tt_charges import build_tt

from oracles import entry_ratio, identity_error, masked_column_ratio, masked_cosine, two_sided

CHAINS = ["chain2", "chain3", "det0_chain2", "det0_chain3"]


@pytest.fixture(params=CHAINS)
def chain(request):
    return request.getfixturevalue(request.param)


def test_gram_report_fields(chain):
    params, _, _, pair = chain
    report = gram(pair, params)
    support = pair_support(params.sites)
    assert report.max_diag_rel_err == entry_ratio(
        report.diag - report.predicted_diag, report.predicted_diag
    )
    assert report.max_zero_cosine == masked_cosine(report.cosine, support.zero)
    assert report.max_offdiag_cosine == masked_cosine(report.cosine, ~support.diagonal)


def test_fusion_residuals(chain):
    params, _, cache, _ = chain
    for (a, m), resid in fusion_residuals(cache)["fusion"].items():
        xa = params.xi[a]
        lhs = cache.t1(xa) @ cache.value(m, xa - params.eta)
        assert resid == two_sided(lhs, cache.value(m + 1, xa))


@pytest.mark.parametrize("name", ["chain2", "chain3"])
def test_dual_fields(name, request):
    params, _, _, pair = request.getfixturevalue(name)
    report = gram(pair, params)
    dual = dual_bases(pair, report)
    eye = np.eye(params.dim)
    norms = np.outer(np.linalg.norm(pair.left, axis=1), np.linalg.norm(pair.right, axis=0))
    cosine = report.gram / norms
    cos_inv = np.linalg.solve(cosine, eye.astype(complex))
    assert dual.inverse_residual == identity_error(cos_inv @ cosine, eye)
    support = pair_support(params.sites)
    coords = dual.measure * report.diag
    unit = coords * np.linalg.norm(pair.right, axis=0)[:, None]
    pred = params.twist.det ** support.pair_count * b_recursion(report)
    assert suites._dual_coordinate_residuals(pair, report, dual) == (
        masked_column_ratio(unit, unit, support.zero),
        masked_column_ratio(coords - pred, coords, support.offdiag),
    )


def test_workspace_fields():
    ws = suites.Workspace("gl3", 3, 5)
    cache, xyz, pair = ws.gl3()
    dim = cache.params.dim
    e0 = np.eye(dim)[0]
    bases = suites.run_bases(ws, suites.DEFAULT_TOLERANCES["bases"])
    assert bases.details["def_r0"] == identity_error(pair.left @ pair.ref_vector, e0)
    family = build_tt(cache, ws.khat()[0].params, ws.khat_eigenstates()[0])
    assert family.completeness_residual() == identity_error(family.right @ family.left,
                                                            np.eye(dim))
    report = ws.gl3_gram()
    pair2 = dressed_pair(ws.other_twist_chain(), xyz)
    diag2 = np.einsum("ij,ji->i", pair2.left, pair2.right)
    want = entry_ratio(diag2 - report.diag, report.diag)
    assert suites._twist_independence_residual(ws) == want


def test_gl2_fields():
    cache, _, bases = suites.Workspace("gl2", 3, 5).gl2()
    params = cache.params
    g, _, diagonal = coupling_residuals(cache, bases)
    pred = coupling_values(params)
    assert diagonal == entry_ratio(np.diagonal(g) - pred, pred)
    left, right, _ = bases
    acc = vandermonde(params.xi) * ((right * shifted_vandermonde(params)) @ left)
    assert identity_decomposition_residual(cache, bases) == identity_error(acc, np.eye(params.dim))


def test_modes_on_empty_masks_and_zero_columns():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    y = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    x[:, 2] = 0
    cells = rng.random((6, 5)) < 0.5
    for mask in (cells, np.zeros_like(cells)):
        assert rel_residual(np.where(mask, x, 0), x) == masked_cosine(x, mask)
        assert rel_residual(np.where(mask, x, 0), x, axis=0) == masked_column_ratio(x, x, mask)
        assert (rel_residual(np.where(mask, y, 0), x, axis=0)
                == masked_column_ratio(y, x, mask))
    assert rel_residual(np.where(np.zeros_like(cells), x, 0), x) == 0.0
    assert rel_residual(x - y, y, axis=()) == entry_ratio(x - y, y)
    eye = np.eye(6, 5)
    assert rel_residual(x - eye, eye) == identity_error(x, eye)
    scale = max(np.abs(x).max(), np.abs(y).max())
    assert rel_residual(x - y, scale) == two_sided(x, y)


def test_max_diag_rel_err_sees_an_error_on_the_smallest_entry(chain3):
    """The predicted diagonal spans three orders of magnitude, so a planted
    1e-6 error on its smallest entry is invisible to a whole-array ratio at
    the gram tolerance, and must not be to the per-entry one."""
    params, _, _, pair = chain3
    report = gram(pair, params)
    pred = report.predicted_diag
    assert np.abs(pred).max() / np.abs(pred).min() > 1e3
    i = np.argmin(np.abs(pred))
    planted = dataclasses.replace(report, diag=report.diag.copy())
    planted.diag[i] = pred[i] * (1 + 1e-6)
    assert planted.max_diag_rel_err == pytest.approx(1e-6, rel=1e-6)
    assert rel_residual(planted.diag - pred, pred) < suites.DEFAULT_TOLERANCES["gram"]
