"""Named verification suites shared by the command line driver and the tests.

Each suite checks one cluster of identities on a reproducible parameter set
and returns a :class:`TaskResult` whose ``max_residual`` is compared against
the suite tolerance.  Sampled model data is derived from the run seed; rank
failures of sampled bases trigger resampling with the seed advanced (at most
five retries, all recorded in the result).
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import gl2_model, gl3_model, sov_measure
from .det0_spectrum import (
    SeparateState,
    boundary_eigenstate_check,
    eigensolve_sov,
    interpolated_action_check,
    make_khat,
    norm_determinant,
    norm_direct,
    probe_decomposition,
    scalar_product_determinant,
    separate_overlap_direct,
    zero_pattern,
)
from .errors import AmbiguousPattern, ConfigError, SingularBasis
from .gl3_model import ModelParams, TransferCache, TwistData
from .numkernel import rel_residual
from .sampling import ParameterSampler
from .sov_bases import (
    TernaryIndex,
    build_left_basis,
    dressed_pair,
    label_products,
    power_pair,
    reference_vector_solve,
)
from .sov_measure import (
    appc_recursion_check,
    b_coefficients,
    coeff_r0_closed_form,
    dual_bases,
    extract_coefficient,
    gram,
)
from .tt_charges import (
    build_tt,
    eigenstate_representation_residual,
    fusion_residuals_tt,
    tt_sov_bases,
)

MAX_RETRIES = 5

#: headline tolerance per suite
DEFAULT_TOLERANCES = {
    "yangbaxter": 1e-11,
    "fusion": 1e-9,
    "bases": 1e-9,
    "gram": 1e-8,
    "measure": 1e-8,
    "dual": 1e-7,
    "det0": 1e-8,
    "scalarproducts": 1e-7,
    "ttcharges": 1e-7,
    "gl2": 1e-7,
    "appendixA": 1e-10,
    "appendixC": 1e-8,
}

GL2_TASKS = ("yangbaxter", "gram", "measure", "gl2")


@dataclass
class TaskResult:
    name: str
    passed: bool
    tolerance: float
    max_residual: float
    details: dict = field(default_factory=dict)
    retries: list = field(default_factory=list)


class Workspace:
    """Lazily built shared model data for one verification run."""

    def __init__(self, algebra, sites, seed, eta=None, xi=None, twist=None, reference=None):
        self.algebra = algebra
        self.sites = sites
        self.seed = seed
        self._eta = eta
        self._xi = xi
        self._twist = twist
        self._reference = reference
        self._explicit = twist is not None or xi is not None or eta is not None
        self.retries = []
        self._cache = {}

    def build(self):
        """Build the chain every suite of this algebra starts from."""
        return self.gl3() if self.algebra == "gl3" else self.gl2()

    def cache_counts(self):
        """Lookups of the shared gl(3) transfer caches built so far (the chain's
        and its K-hat companion's): total hits and misses, and the dense
        assemblies per fusion order."""
        caches = [self._cache[key][i] for key, i in (("gl3", 2), ("khat_chain", 1))
                  if key in self._cache]
        hits = sum((c.hits for c in caches), Counter())
        misses = sum((c.misses for c in caches), Counter())
        return {"hits": sum(hits.values()), "misses": sum(misses.values()),
                "assemblies": {f"m{m}": misses[m] for m in (1, 2, 3)}}

    # -- gl3 ---------------------------------------------------------------

    def _sample_gl3(self, seed):
        s = ParameterSampler(seed)
        eta = self._eta if self._eta is not None else s.shift()
        if self._twist is not None:
            twist = self._twist
        else:
            twist = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
        xi = tuple(self._xi) if self._xi is not None else s.inhomogeneities(self.sites, eta)
        xyz = tuple(self._reference) if self._reference is not None else s.reference3()
        return ModelParams(self.sites, eta, xi, twist), xyz

    def gl3(self):
        """Invertible-twist chain, resampled until the dressed pair has full rank."""
        if "gl3" in self._cache:
            return self._cache["gl3"]
        seed = self.seed
        for attempt in range(MAX_RETRIES + 1):
            params, xyz = self._sample_gl3(seed)
            cache = TransferCache(params)
            pair = dressed_pair(params, xyz, cache)
            try:
                pair.require_full_rank()
            except SingularBasis as exc:
                if self._explicit or attempt == MAX_RETRIES:
                    raise
                self.retries.append({"seed": seed, "reason": str(exc)})
                seed += 1
                continue
            self._cache["gl3"] = (params, xyz, cache, pair)
            return self._cache["gl3"]

    def gl3_gram(self, rtol=1e-9):
        if "gram" not in self._cache:
            params, xyz, cache, pair = self.gl3()
            self._cache["gram"] = gram(pair.left, pair.right, params, rtol)
        return self._cache["gram"]

    def khat_chain(self):
        """Zero-determinant companion parameters (same eta, xi) and their
        transfer cache."""
        if "khat_chain" not in self._cache:
            params, _, _, _ = self.gl3()
            kp = params.with_twist(make_khat(params.twist))
            self._cache["khat_chain"] = (kp, TransferCache(kp))
        return self._cache["khat_chain"]

    def khat(self):
        """Zero-determinant companion chain with its full-rank dressed pair."""
        if "khat" not in self._cache:
            _, xyz, _, _ = self.gl3()
            kp, cache = self.khat_chain()
            pair = dressed_pair(kp, xyz, cache)
            pair.require_full_rank()
            self._cache["khat"] = (kp, xyz, cache, pair)
        return self._cache["khat"]

    def khat_eigenstates(self):
        """Every eigenstate of the companion chain at the probe point, with
        the probe-point decomposition they were read from."""
        if "khat_eigenstates" not in self._cache:
            kp, xyz, cache, pair = self.khat()
            dec = probe_decomposition(kp, cache)
            states, _, _ = eigensolve_sov(kp, xyz, pair=pair, cache=cache, dec=dec)
            self._cache["khat_eigenstates"] = (states, dec)
        return self._cache["khat_eigenstates"]

    def khat_probe_health(self):
        """Smallest relative eigenvalue gap and eigenvector conditioning of the
        companion chain's probe-point decomposition."""
        _, dec = self.khat_eigenstates()
        return {"probe_min_rel_gap": dec.min_rel_gap(), "probe_eigvec_cond": dec.eigvec_cond}

    def khat_states(self):
        """Eigenstates with their zero patterns; ambiguous patterns are
        excluded from determinant runs and logged."""
        if "khat_states" not in self._cache:
            kp, _, cache, _ = self.khat()
            states, _ = self.khat_eigenstates()
            kept, excluded = [], []
            for st in states:
                try:
                    zero_pattern(st, kp, cache)
                    kept.append(st)
                except AmbiguousPattern as exc:
                    excluded.append({"index": st.index, "reason": str(exc)})
            self._cache["khat_states"] = (kept, excluded)
        return self._cache["khat_states"]

    # -- gl2 ---------------------------------------------------------------

    def gl2(self):
        if "gl2" not in self._cache:
            s = ParameterSampler(self.seed)
            eta = self._eta if self._eta is not None else s.shift()
            xi = tuple(self._xi) if self._xi is not None else s.inhomogeneities(self.sites, eta)
            if self._twist is not None:
                k = np.asarray(self._twist, dtype=complex)
            else:
                k = s.gl2_twist()
            ref = tuple(self._reference) if self._reference is not None else s.reference2()
            params = gl2_model.Gl2Params(self.sites, eta, xi, k, ref)
            self._cache["gl2"] = (params, gl2_model.Gl2TransferCache(params))
        return self._cache["gl2"]

    def gl2_coupling(self):
        """``gl2_model.coupling_residuals`` of the gl(2) chain, shared by the
        gram, measure and gl2 suites."""
        if "gl2_coupling" not in self._cache:
            self._cache["gl2_coupling"] = gl2_model.coupling_residuals(*self.gl2())
        return self._cache["gl2_coupling"]


def _result(name, tol, residual, details, ws, extra_ok=True):
    return TaskResult(
        name=name,
        passed=bool(residual <= tol and extra_ok),
        tolerance=tol,
        max_residual=float(residual),
        details=details,
        retries=list(ws.retries),
    )


# ---------------------------------------------------------------------------
# suites


def run_yangbaxter(ws, tol):
    s = ParameterSampler(ws.seed + 1000)
    worst = 0.0
    details = {}
    for _ in range(3):
        lam, mu, eta = s.complex_rational(), s.complex_rational(), s.shift()
        worst = max(worst, gl3_model.check_yang_baxter(lam, mu, eta))
        worst = max(worst, gl3_model.check_yang_baxter(lam, lam, eta))
    details["yang_baxter"] = worst
    if ws.algebra == "gl3":
        params, _, _, _ = ws.gl3()
        k = params.twist.k_matrix
        scal = max(
            gl3_model.scalar_yb_residual(k, s.complex_rational(), params.eta) for _ in range(3)
        )
        details["scalar_yang_baxter"] = scal
        worst = max(worst, scal)
        rtt_sites = min(ws.sites, 2)  # two auxiliary legs triple the dense space
        small = ModelParams(rtt_sites, params.eta, params.xi[:rtt_sites], params.twist)
        rtt = gl3_model.rtt_residual(small, s.complex_rational(), s.complex_rational())
        details["rtt"] = rtt
        worst = max(worst, rtt)
    return _result("yangbaxter", tol, worst, details, ws)


def run_fusion(ws, tol):
    params, _, cache, _ = ws.gl3()
    s = ParameterSampler(ws.seed + 2000)
    table = gl3_model.fusion_residuals(params, cache)
    worst = max(table["fusion"].values())
    worst = max(worst, max(table["central_zero"].values()))
    qworst = 0.0
    for _ in range(5):
        lam = s.spectral_point(params.xi, params.eta)
        t3 = cache.t3(lam)
        pred = gl3_model.quantum_determinant(params, lam)
        qworst = max(qworst, rel_residual(t3 - pred * np.eye(params.dim), pred))
    interp = 0.0
    for _ in range(3):
        lam = s.complex_rational()
        t2 = cache.t2(lam)
        interp = max(
            interp,
            rel_residual(gl3_model.t2_interpolated(params, lam, cache) - t2, t2),
        )
    asym = _asymptotics_residual(params, cache)
    details = {
        "fusion": worst,
        "quantum_determinant": qworst,
        "t2_interpolation": interp,
        "asymptotics": asym,
    }
    return _result("fusion", tol, max(worst, qworst, interp), details, ws, extra_ok=asym < 1e-4)


def _asymptotics_residual(params, cache):
    """First-order Richardson check of the central large-argument behavior."""
    scale = max(max(abs(x) for x in params.xi), abs(params.eta), 1.0)
    lam = 1e6 * scale
    worst = 0.0
    for m, lead in ((1, params.twist.trace_inv), (2, params.twist.second_inv)):
        f1 = cache.value(m, lam) / lam ** (m * params.sites)
        f2 = cache.value(m, 2 * lam) / (2 * lam) ** (m * params.sites)
        richardson = 2 * f2 - f1
        worst = max(worst, rel_residual(richardson - lead * np.eye(params.dim), lead))
    return worst


def run_bases(ws, tol):
    params, xyz, cache, pair = ws.gl3()
    rl, rr = pair.rank_ratios()
    details = {"rank_left": rl, "rank_right": rr, "variant": pair.variant}
    defr0 = float(
        np.abs(pair.left @ pair.ref_vector - np.eye(params.dim)[0]).max()
    )
    solved = reference_vector_solve(pair.left)
    agree = rel_residual(solved - pair.ref_vector, pair.ref_vector)
    s = ParameterSampler(ws.seed + 3000)
    rst = s.reference3()
    ppair = power_pair(params, xyz, rst, cache)
    prl, prr = ppair.rank_ratios()
    details.update({"def_r0": defr0, "closed_vs_solve": agree,
                    "rank_left_powers": prl, "rank_right_powers": prr})
    alpha = _variant_relation_residual(params, xyz, cache)
    details["variant_relation"] = alpha
    worst = max(defr0, agree, alpha)
    ok = min(rl, rr, prl, prr) > 1e-9
    return _result("bases", tol, worst, details, ws, extra_ok=ok)


def _variant_relation_residual(params, xyz, cache):
    """Dressed rows equal plain-power rows up to the per-label quantum
    determinant factor, after matching the references through the full
    transfer product."""
    pair = dressed_pair(params, xyz, cache)
    full = np.eye(params.dim, dtype=complex)
    for x in params.xi:
        full = full @ cache.t1(x)
    base_row = np.linalg.solve(full.T, pair.ref_covector)
    rows = build_left_basis(params, base_row, "powers", cache)
    alpha = label_products(
        [[gl3_model.quantum_determinant(params, x), 1, 1] for x in params.xi]
    )
    return rel_residual(pair.left - alpha[:, None] * rows, pair.left, axis=1)


def run_gram(ws, tol):
    if ws.algebra == "gl2":
        g, cells, _ = ws.gl2_coupling()
        return _result("gram", tol, cells, {"scale": float(np.abs(g).max())}, ws)
    params, _, _, _ = ws.gl3()
    report = ws.gl3_gram()
    zero_worst = max(
        (v["magnitude"] for v in report.violations if v["kind"] == "zero"), default=0.0
    )
    offdiag_bad = [v for v in report.violations if v["kind"] == "offdiag"]
    details = sov_measure.report_summary(report)
    ok = not offdiag_bad
    return _result("gram", tol, max(zero_worst, report.max_diag_rel_err), details, ws, ok)


def run_measure(ws, tol, out_dir=None):
    if ws.algebra == "gl2":
        params, _ = ws.gl2()
        g, _, diagonal = ws.gl2_coupling()
        if out_dir is not None:
            sov_measure.export_matrix_csv(g, out_dir / "gram.csv")
            sov_measure.export_matrix_csv(np.linalg.inv(g), out_dir / "measure.csv")
        return _result("measure", tol, diagonal, {"dim": params.dim}, ws)
    params, _, _, pair = ws.gl3()
    report = ws.gl3_gram()
    worst = report.max_diag_rel_err
    kind_worst = _twist_independence_residual(ws)
    if out_dir is not None:
        sov_measure.export_matrix_csv(report.gram, out_dir / "gram.csv")
        measure = np.linalg.solve(report.gram, np.eye(params.dim, dtype=complex))
        sov_measure.export_matrix_csv(measure, out_dir / "measure.csv")
    details = {"max_diag_rel_err": worst, "twist_independence": kind_worst}
    return _result("measure", tol, max(worst, kind_worst), details, ws)


def _twist_independence_residual(ws):
    """The diagonal couplings must not move when the twist changes."""
    params, xyz, _, _ = ws.gl3()
    report = ws.gl3_gram()
    s = ParameterSampler(ws.seed + 4000)
    other = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
    p2 = params.with_twist(other)
    pair2 = dressed_pair(p2, xyz)
    g2 = pair2.left @ pair2.right
    diag2 = np.diagonal(g2)
    return float(np.max(np.abs(diag2 - report.diag) / np.abs(report.diag)))


def run_dual(ws, tol):
    params, xyz, cache, pair = ws.gl3()
    report = ws.gl3_gram()
    dual = dual_bases(pair, report)
    worst = max(dual.inverse_residual, 0.0)
    sparsity = _dual_sparsity_residual(params, report, dual)
    brec = _b_recursion_residual(params, report, dual)
    details = {
        "inverse_residual": dual.inverse_residual,
        "ortho_residual": dual.ortho_residual,
        "expansion_sparsity": sparsity,
        "b_recursion": brec,
    }
    return _result("dual", tol, max(worst, sparsity, brec), details, ws)


def _dual_sparsity_residual(params, report, dual):
    """Dual-vector coordinates must vanish outside the pair-move support."""
    # column h holds the coordinates of the dual vector of h, as
    # expansion_coefficients gives them; a pair move of h lands on row t
    # exactly when cell (t, h) is not zero-classified
    mags = np.abs(dual.measure * report.diag)
    scale = np.maximum(mags.max(axis=0), 1e-300)
    outside = sov_measure.pair_support(params.sites).zero
    return float(np.max((mags / scale)[outside], initial=0.0))


def _b_recursion_residual(params, report, dual):
    """On every pair move of h the dual coordinate must be (det K)^r times the
    recursion's coefficient B_(alpha,beta), relative to the column's largest
    coordinate."""
    support = sov_measure.pair_support(params.sites)
    coords = dual.measure * report.diag
    pred = params.twist.det ** support.pair_count * b_coefficients(report)
    scale = np.maximum(np.abs(coords).max(axis=0), 1e-300)
    return float(np.max((np.abs(coords - pred) / scale)[support.offdiag], initial=0.0))


def run_det0(ws, tol):
    kp, xyz, cache, pair = ws.khat()
    report = gram(pair.left, pair.right, kp)
    off = report.max_offdiag_cosine
    diag_err = report.max_diag_rel_err
    s = ParameterSampler(ws.seed + 5000)
    lams = [s.spectral_point(kp.xi, kp.eta) for _ in range(3)]
    action_worst = 0.0
    rng = np.random.default_rng(ws.seed + 17)
    for _ in range(5):
        digits = tuple(rng.integers(0, 3, kp.sites).tolist())
        h = TernaryIndex(digits)
        for which in (1, 2):
            for side in ("left", "right"):
                action_worst = max(
                    action_worst,
                    interpolated_action_check(kp, h, which, side, xyz, lams, cache),
                )
    boundary = boundary_eigenstate_check(
        kp, xyz, [s.spectral_point(kp.xi, kp.eta) for _ in range(5)], cache
    )
    bworst = max(v[0] if isinstance(v, tuple) else v for v in boundary.values())
    spread = max(v[2] for v in boundary.values() if isinstance(v, tuple))
    details = {
        "offdiag": float(off),
        "diag_rel_err": float(diag_err),
        "interpolated_actions": float(action_worst),
        "boundary_residual": float(bworst),
        "boundary_constant_spread": float(spread),
    }
    worst = max(off, diag_err, action_worst, bworst, spread)
    return _result("det0", tol, worst, details, ws)


def run_scalarproducts(ws, tol, n_random=20):
    kp, xyz, cache, pair = ws.khat()
    states, excluded = ws.khat_states()
    fact = max(st.factorization_residual for st in states)
    rng = np.random.default_rng(ws.seed + 23)
    sp_worst = 0.0
    norm_worst = 0.0
    records = []
    for st in states:
        nd = norm_determinant(st, kp, cache)
        direct = norm_direct(st)
        nres = rel_residual(nd - direct, direct)
        norm_worst = max(norm_worst, nres)
        records.append(
            {
                "index": st.index,
                "pattern": list(st.perm),
                "split": st.msize,
                "norm_formula": [nd.real, nd.imag],
                "norm_direct": [direct.real, direct.imag],
                "rel_err": float(nres),
            }
        )
    for _ in range(n_random):
        st = states[int(rng.integers(0, len(states)))]
        alpha = SeparateState.random(rng, kp.sites)
        det_val = scalar_product_determinant(alpha, st, kp)
        direct = separate_overlap_direct(alpha, st, kp)
        sp_worst = max(sp_worst, rel_residual(det_val - direct, direct))
    details = {
        "factorization": float(fact),
        "scalar_products": float(sp_worst),
        "norms": float(norm_worst),
        "per_state": records,
        "excluded_ambiguous": excluded,
        **ws.khat_probe_health(),
    }
    return _result("scalarproducts", tol, max(fact, sp_worst, norm_worst), details, ws)


def run_ttcharges(ws, tol):
    params, xyz, cache, _ = ws.gl3()
    kp, khat_cache = ws.khat_chain()
    khat_states, khat_dec = ws.khat_eigenstates()
    family = build_tt(params, kp, cache=cache, khat_cache=khat_cache, khat_states=khat_states)
    fus = fusion_residuals_tt(family)
    s = ParameterSampler(ws.seed + 6000)
    comm_worst = 0.0
    for _ in range(3):
        mu = s.spectral_point(params.xi, params.eta)
        lam = s.spectral_point(params.xi, params.eta)
        t = cache.t1(mu)
        c = family.charge(1, lam)
        comm_worst = max(comm_worst, rel_residual(t @ c - c @ t, t @ c))
    probe_resid = max(family.probe_residual, khat_dec.residual_norm)
    tpair = tt_sov_bases(family, xyz)
    treport = gram(tpair.left, tpair.right, params.with_twist(family.khat_params.twist))
    off = treport.max_offdiag_cosine
    diag_err = treport.max_diag_rel_err
    rep = eigenstate_representation_residual(family, tpair)
    central = rel_residual(
        max(np.abs(family.charge(2, x + params.eta)).max() for x in params.xi),
        family.charge(2, params.xi[0]),
    )
    details = {
        "fusion": float(max(fus.values())),
        "commutation": float(comm_worst),
        "projector_completeness": family.completeness_residual(),
        "gram_offdiag": float(off),
        "gram_diag": float(diag_err),
        "eigen_representation": float(rep),
        "central_zero": float(central),
        "probe_eigen_residual": probe_resid,
        **ws.khat_probe_health(),
    }
    worst = max(max(fus.values()), comm_worst, off, diag_err, rep, central, probe_resid)
    return _result("ttcharges", tol, worst, details, ws)


def run_gl2(ws, tol):
    params, cache = ws.gl2()
    _, measure_worst, _ = ws.gl2_coupling()
    ident = gl2_model.identity_decomposition_residual(params, cache)
    reps = gl2_model.gl2_eigen_reps(params, cache=cache)
    qworst = 0.0
    for a in range(params.sites):
        scalar, resid, closed = gl2_model.qdet_scalar(params, a, cache)
        qworst = max(qworst, resid, rel_residual(scalar - closed, closed))
    details = {
        "measure": float(measure_worst),
        "identity_decomposition": float(ident),
        "fusion_scalar": float(qworst),
        "eigen_reconstruction": reps["reconstruction_residual"],
        "detk_representation": reps["detk_rep_residual"],
        "min_reference_overlap": reps["min_overlap"],
    }
    worst = max(measure_worst, ident, qworst, reps["reconstruction_residual"],
                reps["detk_rep_residual"])
    ok = reps["min_overlap"] > 1e-9
    return _result("gl2", tol, worst, details, ws, extra_ok=ok)


def run_appendix_a(ws, tol):
    params, _, cache, _ = ws.gl3()
    worst = 0.0
    details = {}
    for m in range(1, min(params.sites, 3) + 1):
        sites = tuple(range(1, m + 1))
        r = gl3_model.product_formula_check(params, sites)
        details[f"product_m{m}"] = r
        worst = max(worst, r)
    if params.sites >= 3:
        r = gl3_model.exchange_relation_residual(
            params, 1, params.sites, tuple(range(2, params.sites))
        )
        details["exchange_relation"] = r
        worst = max(worst, r)
    return _result("appendixA", tol, worst, details, ws)


def run_appendix_c(ws, tol):
    params, xyz, cache, _ = ws.gl3()
    details = {}
    worst = 0.0
    if params.sites >= 2:
        rng = np.random.default_rng(ws.seed + 31)
        rest = tuple(rng.integers(0, 3, params.sites - 2).tolist())
        out = appc_recursion_check(params, 0, xyz, h_rest=rest, cache=cache)
        details["seed_rest_" + "".join(map(str, rest))] = out["seed"]
        worst = max(worst, out["seed"])
    if params.sites >= 4:
        rest = tuple()
        if params.sites > 4:
            rng = np.random.default_rng(ws.seed + 37)
            rest = tuple(rng.integers(0, 3, params.sites - 4).tolist())
        out = appc_recursion_check(params, 1, xyz, h_rest=rest, cache=cache)
        details["two_pair"] = out["two_pair"]
        worst = max(worst, out["two_pair"])
    coeff_worst = 0.0
    if params.sites in (2, 3):
        report = ws.gl3_gram()
        for rest in itertools.product((0, 1, 2), repeat=params.sites - 2):
            h = TernaryIndex((0, 2) + rest)
            k = TernaryIndex((1, 1) + rest)
            c_meas = extract_coefficient(report, h, k)
            c_form = coeff_r0_closed_form(params, rest)
            coeff_worst = max(coeff_worst, rel_residual(c_meas - c_form, c_form))
        details["single_pair_coefficient"] = coeff_worst
    worst = max(worst, coeff_worst)
    return _result("appendixC", tol, worst, details, ws)


SUITES = {
    "yangbaxter": run_yangbaxter,
    "fusion": run_fusion,
    "bases": run_bases,
    "gram": run_gram,
    "measure": run_measure,
    "dual": run_dual,
    "det0": run_det0,
    "scalarproducts": run_scalarproducts,
    "ttcharges": run_ttcharges,
    "gl2": run_gl2,
    "appendixA": run_appendix_a,
    "appendixC": run_appendix_c,
}


def validate_tasks(tasks, algebra):
    for t in tasks:
        if t not in SUITES:
            raise ConfigError(f"unknown task {t!r}; known: {sorted(SUITES)}")
        if algebra == "gl2" and t not in GL2_TASKS:
            raise ConfigError(f"task {t!r} is not available for algebra gl2")


def run_task(name, ws, tolerances, out_dir=None):
    tol = tolerances.get(name, DEFAULT_TOLERANCES[name])
    if name == "measure":
        return run_measure(ws, tol, out_dir=out_dir)
    return SUITES[name](ws, tol)
