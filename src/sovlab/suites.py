"""Named verification suites shared by the command line driver and the tests.

Each suite checks one cluster of identities on a reproducible parameter set
and forms its :class:`TaskResult` through one rule, :func:`_result`: the
suite declares its gated figures apart from its reported-only ones, its
``max_residual`` is the :func:`~sovlab.numkernel.worst` of the gated figures
(so a NaN figure fails it), and every figure is named in ``details``.
Sampled model data is derived from the run seed and memoized on the
:class:`Workspace`, a library error as well as a value; a sampled gl(3)
chain whose bases are rank deficient, or whose inhomogeneities differ by
2 eta, is resampled with the seed advanced (at most five retries, all
recorded in the result).
"""

import dataclasses
import functools
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
from .errors import AmbiguousPattern, ConfigError, DoubleShift, SingularBasis, SovLabError
from .gl3_model import ModelParams, TransferCache, TwistData
from .numkernel import RANK_RTOL, rel_residual, worst
from .sampling import ParameterSampler
from .sov_bases import (
    dressed_pair,
    label_products,
    power_pair,
    reference_vector_solve,
    transfer_family,
)
from .sov_measure import (
    appc_recursion_check,
    b_recursion,
    coeff_r0_closed_form,
    dual_bases,
    expansion_coefficients,
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


def _memo(method):
    """Memoize a :class:`Workspace` method's value under the method's name.
    A :class:`SovLabError` it raises is kept and raised again by later calls,
    so a configured chain that fails is built once, not once per suite."""
    key = method.__name__

    @functools.wraps(method)
    def memoized(self):
        if key not in self._cache:
            try:
                self._cache[key] = method(self)
            except SovLabError as exc:
                self._cache[key] = exc
        value = self._cache[key]
        if isinstance(value, SovLabError):
            raise value.with_traceback(None)  # so it holds no frames of the failed build
        return value
    return memoized


class Workspace:
    """Lazily built shared model data for one verification run.

    The memos, the basis pairs among them, and the transfer caches' counts
    last the run; node matrices last one suite, as :func:`run_task` empties
    the stores.
    """

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
        self._chains = []
        self._peak_stored = 0

    def build(self):
        """Build the chain every suite of this algebra starts from."""
        return self.gl3() if self.algebra == "gl3" else self.gl2()

    def _chain(self, params):
        """A new transfer cache for ``params``.  Every cache the workspace
        builds is made here and kept, so that its counts are reported and its
        node store is released, a failed chain's too."""
        cache = TransferCache(params)
        self._chains.append(cache)
        return cache

    def cache_counts(self):
        """Lookups of every transfer cache: total hits and misses, the dense
        assemblies and the seconds they took per fusion order, and the most
        node matrices the caches held at the end of a suite."""
        hits = sum((c.hits for c in self._chains), Counter())
        misses = sum((c.misses for c in self._chains), Counter())
        seconds = sum((c.seconds for c in self._chains), Counter())
        return {"hits": sum(hits.values()), "misses": sum(misses.values()),
                "assemblies": {f"m{m}": misses[m] for m in (1, 2, 3)},
                "assembly_s": {f"m{m}": seconds[m] for m in (1, 2, 3)},
                "peak_stored": self._peak_stored}

    def release_nodes(self):
        """End a suite: empty every transfer cache's node store, after noting
        what they held.  Memos and counts stay."""
        self._peak_stored = max(self._peak_stored, sum(c.stored for c in self._chains))
        for c in self._chains:
            c.clear()

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

    @_memo
    def gl3(self):
        """Invertible-twist chain as ``(cache, xyz, pair)``: its transfer cache,
        reference components and dressed pair, resampled until the pair has
        full rank; a failed chain keeps only its counts."""
        seed = self.seed
        for attempt in range(MAX_RETRIES + 1):
            params, xyz = self._sample_gl3(seed)
            cache = self._chain(params)
            try:
                pair = dressed_pair(cache, xyz)
                pair.require_full_rank()
            except (SingularBasis, DoubleShift) as exc:
                cache.clear()
                if self._explicit or attempt == MAX_RETRIES:
                    raise
                self.retries.append({"seed": seed, "reason": str(exc)})
                seed += 1
                continue
            return cache, xyz, pair

    @_memo
    def gl3_gram(self):
        cache, _, pair = self.gl3()
        return gram(pair, cache.params)

    @_memo
    def gl3_dual(self):
        """Inverse measure and residual figures of the dressed pair's dual
        families; the families themselves, read by no suite, are not kept."""
        dual = dual_bases(self.gl3()[2], self.gl3_gram())
        return dataclasses.replace(dual, p_covectors=None, p_vectors=None)

    @_memo
    def other_twist_chain(self):
        """Transfer cache of the chain with the same eta and xi under a second
        sampled twist, for the twist-independence check, which drops its
        store once read."""
        s = ParameterSampler(self.seed + 4000)
        other = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
        return self._chain(self.gl3()[0].params.with_twist(other))

    @_memo
    def khat(self):
        """Zero-determinant companion chain (same eta, xi) as ``(cache, xyz,
        pair)``, with a full-rank dressed pair."""
        chain, xyz, _ = self.gl3()
        params = chain.params
        cache = self._chain(params.with_twist(make_khat(params.twist)))
        pair = dressed_pair(cache, xyz)
        pair.require_full_rank()
        return cache, xyz, pair

    @_memo
    def khat_eigenstates(self):
        """The table of every eigenstate of the companion chain at the probe
        point, with the probe-point decomposition it was read from."""
        cache, _, pair = self.khat()
        dec = probe_decomposition(cache)
        return eigensolve_sov(cache, pair, dec), dec

    def khat_probe_health(self):
        """Smallest relative eigenvalue gap and eigenvector conditioning of the
        companion chain's probe-point decomposition."""
        _, dec = self.khat_eigenstates()
        return {"probe_min_rel_gap": dec.min_rel_gap, "probe_eigvec_cond": dec.eigvec_cond}

    @_memo
    def khat_states(self):
        """The table of the eigenstates whose zero pattern is decided, the
        logged exclusions of the ambiguous ones, and the pattern figures of
        :func:`zero_pattern`; with no state decided, the first exclusion is
        raised."""
        cache = self.khat()[0]
        states, _ = self.khat_eigenstates()
        kept, excluded, figures = zero_pattern(cache, states)
        if not len(kept):
            raise AmbiguousPattern(f"no eigenstate has a decided zero pattern; state "
                                   f"{excluded[0][0]}: {excluded[0][1]}")
        return kept, [{"index": i, "reason": str(exc)} for i, exc in excluded], figures

    # -- gl2 ---------------------------------------------------------------

    @_memo
    def gl2(self):
        """The gl(2) chain as ``(cache, ref, bases)``: its transfer cache,
        reference pair and :func:`gl2_model.gl2_bases`.  It shares a
        configured eta and xi; a gl3 run's configured twist and reference are
        gl(3) data, so there it samples its own."""
        s = ParameterSampler(self.seed)
        eta = self._eta if self._eta is not None else s.shift()
        xi = tuple(self._xi) if self._xi is not None else s.inhomogeneities(self.sites, eta)
        gl2_run = self.algebra == "gl2"
        twist = self._twist if gl2_run else None
        reference = self._reference if gl2_run else None
        k = twist if twist is not None else s.gl2_twist()
        ref = tuple(reference) if reference is not None else s.reference2()
        cache = self._chain(ModelParams(self.sites, eta, xi, k))
        return cache, ref, gl2_model.gl2_bases(cache, ref)

    @_memo
    def gl2_coupling(self):
        """``gl2_model.coupling_residuals`` of the gl(2) chain, shared by the
        gram, measure and gl2 suites."""
        cache, _, bases = self.gl2()
        return gl2_model.coupling_residuals(cache, bases)


def _result(name, tol, ws, gated, info=None, ok=True):
    """A suite's verdict: ``max_residual`` is the worst of the ``gated``
    figures, and the suite passes when that is within ``tol`` and ``ok`` (its
    other gates) holds.  ``details`` names every gated and ``info`` figure."""
    residual = worst(gated.values())
    return TaskResult(
        name=name,
        passed=bool(residual <= tol and ok),
        tolerance=tol,
        max_residual=residual,
        details={**gated, **(info or {})},
        retries=list(ws.retries),
    )


# ---------------------------------------------------------------------------
# suites


def run_yangbaxter(ws, tol):
    s = ParameterSampler(ws.seed + 1000)
    yb = []
    for _ in range(3):
        lam, mu, eta = s.complex_rational(), s.complex_rational(), s.shift()
        yb += [gl3_model.check_yang_baxter(lam, mu, eta),
               gl3_model.check_yang_baxter(lam, lam, eta)]
    gated = {"yang_baxter": worst(yb)}
    if ws.algebra == "gl3":
        params = ws.gl3()[0].params
        k = params.twist.k_matrix
        gated["scalar_yang_baxter"] = worst(
            gl3_model.scalar_yb_residual(k, s.complex_rational(), params.eta) for _ in range(3)
        )
        rtt_sites = min(ws.sites, 2)  # two auxiliary legs triple the dense space
        small = ModelParams(rtt_sites, params.eta, params.xi[:rtt_sites], params.twist)
        gated["rtt"] = gl3_model.rtt_residual(small, s.complex_rational(), s.complex_rational())
    return _result("yangbaxter", tol, ws, gated)


def run_fusion(ws, tol):
    cache = ws.gl3()[0]
    params = cache.params
    s = ParameterSampler(ws.seed + 2000)
    table = gl3_model.fusion_residuals(cache)

    def qdet(lam):
        pred = gl3_model.quantum_determinant(params, lam)
        return rel_residual(cache.t3(lam) - pred * np.eye(params.dim), pred)

    def interp(lam):
        t2 = cache.t2(lam)
        return rel_residual(gl3_model.t2_interpolated(cache, lam) - t2, t2)

    gated = {
        "fusion": worst([*table["fusion"].values(), *table["central_zero"].values()]),
        "quantum_determinant": worst(qdet(s.spectral_point(params.xi, params.eta))
                                     for _ in range(5)),
        "t2_interpolation": worst(interp(s.complex_rational()) for _ in range(3)),
    }
    asym = _asymptotics_residual(cache)
    return _result("fusion", tol, ws, gated, {"asymptotics": asym}, ok=asym < 1e-4)


def _asymptotics_residual(cache):
    """First-order Richardson check of the central large-argument behavior:
    T_m(lam) / lam^(mN) tends to the m-th spectral invariant of K times the
    identity, read relative to max(|invariant|, max|K_ij|^m), a scale that
    does not vanish with the invariant (a traceless twist)."""
    params = cache.params
    kmax = float(np.abs(params.twist.k_matrix).max())
    scale = max(max(abs(x) for x in params.xi), abs(params.eta), 1.0)
    lam = 1e6 * scale

    def residual(m, lead):
        f1 = cache.value(m, lam) / lam ** (m * params.sites)
        f2 = cache.value(m, 2 * lam) / (2 * lam) ** (m * params.sites)
        richardson = 2 * f2 - f1
        return rel_residual(richardson - lead * np.eye(params.dim), max(abs(lead), kmax**m))
    return worst(residual(m, lead)
                 for m, lead in ((1, params.twist.trace_inv), (2, params.twist.second_inv)))


def run_bases(ws, tol):
    cache, xyz, pair = ws.gl3()
    params = cache.params
    rl, rr = pair.rank_ratios()
    e0 = np.eye(params.dim)[0]
    solved = reference_vector_solve(pair.left, pair.row_norms, rl)
    s = ParameterSampler(ws.seed + 3000)
    prl, prr = power_pair(cache, xyz, s.reference3()).rank_ratios()
    gated = {
        "def_r0": rel_residual(pair.left @ pair.ref_vector - e0, e0),
        "closed_vs_solve": rel_residual(solved - pair.ref_vector, pair.ref_vector),
        "variant_relation": _variant_relation_residual(cache, pair),
    }
    info = {"rank_left": rl, "rank_right": rr, "variant": pair.variant,
            "rank_left_powers": prl, "rank_right_powers": prr}
    return _result("bases", tol, ws, gated, info, ok=min(rl, rr, prl, prr) > RANK_RTOL)


def _variant_relation_residual(cache, pair):
    """Dressed rows equal plain-power rows up to the per-label quantum
    determinant factor, after matching the references through the full
    transfer product."""
    params = cache.params
    full = np.eye(params.dim, dtype=complex)
    for x in params.xi:
        full = full @ cache.t1(x)
    base_row = np.linalg.solve(full.T, pair.ref_covector)
    rows = transfer_family(cache, base_row, "powers", "left")
    alpha = label_products(
        [[gl3_model.quantum_determinant(params, x), 1, 1] for x in params.xi]
    )
    return rel_residual(pair.left - alpha[:, None] * rows, pair.left, axis=1)


def run_gram(ws, tol):
    if ws.algebra == "gl2":
        g, cells, _ = ws.gl2_coupling()
        return _result("gram", tol, ws, {"max_cell_rel_err": cells},
                       {"scale": float(np.abs(g).max())})
    report = ws.gl3_gram()
    info = sov_measure.report_summary(report)
    gated = {
        "max_zero_violation": worst(v["magnitude"] for v in report.violations
                                    if v["kind"] == "zero"),
        "max_diag_rel_err": info.pop("max_diag_rel_err"),
    }
    ok = not any(v["kind"] == "offdiag" for v in report.violations)
    return _result("gram", tol, ws, gated, info, ok)


def run_measure(ws, tol, out_dir=None):
    if ws.algebra == "gl2":
        g, _, diagonal = ws.gl2_coupling()
        if out_dir is not None:
            sov_measure.export_matrix_csv(g, out_dir / "gram.csv")
            sov_measure.export_matrix_csv(np.linalg.inv(g), out_dir / "measure.csv")
        return _result("measure", tol, ws, {"max_diag_rel_err": diagonal},
                       {"dim": ws.gl2()[0].params.dim})
    report = ws.gl3_gram()
    gated = {"max_diag_rel_err": report.max_diag_rel_err,
             "twist_independence": _twist_independence_residual(ws)}
    if out_dir is not None:
        sov_measure.export_matrix_csv(report.gram, out_dir / "gram.csv")
        sov_measure.export_matrix_csv(ws.gl3_dual().measure, out_dir / "measure.csv")
    return _result("measure", tol, ws, gated)


def _twist_independence_residual(ws):
    """The diagonal couplings must not move when the twist changes."""
    xyz = ws.gl3()[1]
    report = ws.gl3_gram()
    cache = ws.other_twist_chain()
    pair2 = dressed_pair(cache, xyz)
    cache.clear()  # nothing reads this chain again; the report keeps its counts
    diag2 = np.diagonal(pair2.left @ pair2.right)
    return rel_residual(diag2 - report.diag, report.diag, axis=())


def run_dual(ws, tol):
    report = ws.gl3_gram()
    dual = ws.gl3_dual()
    sparsity, brec = _dual_coordinate_residuals(ws.gl3()[2], report, dual)
    gated = {"inverse_residual": dual.inverse_residual,
             "expansion_sparsity": sparsity, "b_recursion": brec}
    return _result("dual", tol, ws, gated, {"ortho_residual": dual.ortho_residual})


def _dual_coordinate_residuals(pair, report, dual):
    """``(sparsity, b_recursion)`` of the dual-vector coordinates over the
    right family of ``pair``, each relative to its column's largest
    coordinate.

    Column h of :func:`expansion_coefficients` holds the coordinates of the
    dual vector of h.  They must vanish outside the pair-move support (a
    pair move of h lands on row t exactly when cell (t, h) is not
    zero-classified), read on the unit-norm right members (row t times
    ``pair.col_norms[t]``), and on every pair move of h equal (det K)^r
    times the recursion's coefficient B_(alpha,beta) (:func:`b_recursion`).
    """
    support = sov_measure.pair_support(report.params.sites)
    coords = expansion_coefficients(report, dual)
    unit = coords * pair.col_norms[:, None]
    sparsity = rel_residual(np.where(support.zero, unit, 0), unit, axis=0)
    pred = report.params.twist.det ** support.pair_count * b_recursion(report)
    brec = rel_residual(np.where(support.offdiag, coords - pred, 0), coords, axis=0)
    return sparsity, brec


def run_det0(ws, tol):
    cache, _, pair = ws.khat()
    kp = cache.params
    report = gram(pair, kp)
    s = ParameterSampler(ws.seed + 5000)
    lams = [s.spectral_point(kp.xi, kp.eta) for _ in range(3)]
    rng = np.random.default_rng(ws.seed + 17)
    labels = [tuple(rng.integers(0, 3, kp.sites).tolist()) for _ in range(5)]
    moves = [(h, which, side) for h in labels for which in (1, 2) for side in ("left", "right")]
    actions = interpolated_action_check(cache, moves, pair, lams)
    boundary = boundary_eigenstate_check(
        cache, pair, [s.spectral_point(kp.xi, kp.eta) for _ in range(5)]
    )
    bworst = worst(resid for resid, _ in boundary.values())
    right_spread = boundary.pop("right_family_t2")[1]
    gated = {
        "offdiag": report.max_offdiag_cosine,
        "diag_rel_err": report.max_diag_rel_err,
        "interpolated_actions": actions,
        "boundary_residual": bworst,
        "boundary_constant_spread": worst(v for _, v in boundary.values()),
        "right_constant_spread": right_spread,
    }
    return _result("det0", tol, ws, gated)


def run_scalarproducts(ws, tol):
    kp = ws.khat()[0].params
    states, excluded, figures = ws.khat_states()
    rng = np.random.default_rng(ws.seed + 23)
    records = []
    for row in range(len(states)):
        a_sites, b_sites = states.split(row)
        nd = norm_determinant(states, row, kp)
        direct = norm_direct(states, row)
        records.append(
            {
                "index": int(states.index[row]),
                "pattern": list(a_sites + b_sites),
                "split": len(a_sites),
                "norm_formula": [nd.real, nd.imag],
                "norm_direct": [direct.real, direct.imag],
                "rel_err": rel_residual(nd - direct, direct),
            }
        )

    def overlap_residual():
        row = int(rng.integers(0, len(states)))
        alpha = SeparateState.random(rng, kp.sites)
        det_val = scalar_product_determinant(alpha, states, row, kp)
        direct = separate_overlap_direct(alpha, states, row, kp)
        return rel_residual(det_val - direct, direct)

    gated = {
        "factorization": worst(states.factorization_residual),
        "scalar_products": worst(overlap_residual() for _ in range(20)),
        "norms": worst(r["rel_err"] for r in records),
    }
    info = {"per_state": records, "excluded_ambiguous": excluded, **ws.khat_probe_health(),
            **figures}
    return _result("scalarproducts", tol, ws, gated, info)


def run_ttcharges(ws, tol):
    cache, xyz, _ = ws.gl3()
    params = cache.params
    khat_cache = ws.khat()[0]
    khat_states, khat_dec = ws.khat_eigenstates()
    family = build_tt(cache, khat_cache.params, khat_states)
    s = ParameterSampler(ws.seed + 6000)

    def commutation():
        t = cache.t1(s.spectral_point(params.xi, params.eta))
        c = family.charge(khat_cache.t1(s.spectral_point(params.xi, params.eta)))
        tc, ct = t @ c, c @ t
        return rel_residual(np.subtract(tc, ct, out=ct), tc)  # the difference overwrites c t

    tpair = tt_sov_bases(family, xyz)
    treport = gram(tpair, family.khat_params)
    gated = {
        "fusion": worst(fusion_residuals_tt(family).values()),
        "commutation": worst(commutation() for _ in range(3)),
        "gram_offdiag": treport.max_offdiag_cosine,
        "gram_diag": treport.max_diag_rel_err,
        "eigen_representation": eigenstate_representation_residual(family, tpair),
        "central_zero": rel_residual(
            worst(np.abs(family.charge(khat_cache.t2(x + params.eta))).max() for x in params.xi),
            family.charge(khat_cache.t2(params.xi[0])),
        ),
        "probe_eigen_residual": worst((family.probe_residual, khat_dec.residual_norm)),
    }
    info = {"projector_completeness": family.completeness_residual(),
            **ws.khat_probe_health()}
    return _result("ttcharges", tol, ws, gated, info)


def run_gl2(ws, tol):
    cache, _, bases = ws.gl2()
    reps = gl2_model.gl2_eigen_reps(cache, bases)
    qdet = []
    for a in range(cache.params.sites):
        scalar, resid, closed = gl2_model.qdet_scalar(cache, a)
        qdet += [resid, rel_residual(scalar - closed, closed)]
    gated = {
        "measure": ws.gl2_coupling()[1],
        "identity_decomposition": gl2_model.identity_decomposition_residual(cache, bases),
        "fusion_scalar": worst(qdet),
        "eigen_reconstruction": reps["reconstruction_residual"],
        "detk_representation": reps["detk_rep_residual"],
    }
    return _result("gl2", tol, ws, gated, {"min_reference_overlap": reps["min_overlap"]},
                   ok=reps["min_overlap"] > 1e-9)


def run_appendix_a(ws, tol):
    cache = ws.gl3()[0]
    params = cache.params
    gated = {f"product_m{m}": gl3_model.product_formula_check(cache, tuple(range(1, m + 1)))
             for m in range(1, min(params.sites, 3) + 1)}
    if params.sites >= 3:
        gated["exchange_relation"] = gl3_model.exchange_relation_residual(
            params, 1, params.sites, tuple(range(2, params.sites))
        )
    return _result("appendixA", tol, ws, gated)


def run_appendix_c(ws, tol):
    cache, _, pair = ws.gl3()
    params = cache.params
    gated = {}
    if params.sites >= 2:
        t2 = cache.t2(params.xi[1])  # not stored at the node: read once for both depths
        rng = np.random.default_rng(ws.seed + 31)
        rest = tuple(rng.integers(0, 3, params.sites - 2).tolist())
        out = appc_recursion_check(cache, 0, pair, t2, h_rest=rest)
        gated["seed_rest_" + "".join(map(str, rest))] = out["seed"]
    if params.sites >= 4:
        rest = tuple()
        if params.sites > 4:
            rng = np.random.default_rng(ws.seed + 37)
            rest = tuple(rng.integers(0, 3, params.sites - 4).tolist())
        gated["two_pair"] = appc_recursion_check(cache, 1, pair, t2, h_rest=rest)["two_pair"]
    if params.sites in (2, 3):
        report = ws.gl3_gram()

        def coefficient(rest):
            c_meas = extract_coefficient(report, (0, 2) + rest, (1, 1) + rest)
            c_form = coeff_r0_closed_form(params, rest)
            return rel_residual(c_meas - c_form, c_form)
        gated["single_pair_coefficient"] = worst(
            coefficient(rest) for rest in itertools.product((0, 1, 2), repeat=params.sites - 2))
    return _result("appendixC", tol, ws, gated)


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

#: the tasks a run makes when its config lists none, in run order
DEFAULT_TASKS = {"gl3": tuple(SUITES), "gl2": ("gram", "measure", "gl2")}


def validate_tasks(tasks, algebra):
    for t in tasks:
        if t not in SUITES:
            raise ConfigError(f"unknown task {t!r}; known: {sorted(SUITES)}")
        if algebra == "gl2" and t not in GL2_TASKS:
            raise ConfigError(f"task {t!r} is not available for algebra gl2")


def run_task(name, ws, tolerances, out_dir=None):
    """Run one suite; a library error fails it with the error's text and an
    infinite residual.  Either way the suite ends by emptying the node
    stores (:meth:`Workspace.release_nodes`)."""
    tol = tolerances.get(name, DEFAULT_TOLERANCES[name])
    try:
        if name == "measure":
            return run_measure(ws, tol, out_dir=out_dir)
        return SUITES[name](ws, tol)
    except SovLabError as exc:
        return TaskResult(name=name, passed=False, tolerance=tol, max_residual=float("inf"),
                          details={"error": f"{type(exc).__name__}: {exc}"},
                          retries=list(ws.retries))
    finally:
        ws.release_nodes()
