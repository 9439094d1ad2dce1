"""Span tracer for the per-layer run.

Every binding of a traced function is replaced by a wrapper: the defining
module's name, every ``from ... import`` copy of it in another sovlab module,
class methods and ``np.linalg.eig``.  The library itself is not edited.

Each wrapped call counts ``<layer>.calls``.  Calls that are not nested in an
opaque span also open a span (name, start, end, parent, run id) kept in
memory.  ``gl3_model.transfer`` is opaque: the ``fused_apply`` calls it makes
are counted (calls, columns, computed multiply-adds) but timed as part of the
transfer span of their fusion order, so ``transfer.m<m>.s`` is the assembly
cost of order m and ``fused_apply.s`` is the matrix-free cost.
"""

import json
import time
from collections import Counter

import numpy as np

from sovlab import (
    cli,
    det0_spectrum,
    gl2_model,
    gl3_model,
    numkernel,
    sov_bases,
    sov_measure,
    suites,
    tt_charges,
)

MODULES = (cli, det0_spectrum, gl2_model, gl3_model, numkernel, sov_bases, sov_measure,
           suites, tt_charges)

# (module or class, attribute, layer) for every traced public function; the
# layer name is the prefix of the per-layer metrics the call feeds.
FUNCTIONS = (
    (gl3_model, "check_yang_baxter", "gl3_model.dense_checks"),
    (gl3_model, "scalar_yb_residual", "gl3_model.dense_checks"),
    (gl3_model, "rtt_residual", "gl3_model.dense_checks"),
    (gl3_model, "product_formula_check", "gl3_model.dense_checks"),
    (gl3_model, "exchange_relation_residual", "gl3_model.dense_checks"),
    (numkernel, "rank_ratio", "sov_bases.rank"),
    (sov_bases, "dressed_pair", "sov_bases.pair"),
    (sov_bases, "power_pair", "sov_bases.pair"),
    (sov_measure, "gram", "sov_measure.gram"),
    (sov_measure, "dual_bases", "sov_measure.dual_bases"),
    (sov_measure, "b_recursion", "sov_measure.b_recursion"),
    (det0_spectrum, "eigensolve_sov", "det0_spectrum.eigensolve_sov"),
    (det0_spectrum, "zero_pattern", "det0_spectrum.zero_pattern"),
    (det0_spectrum, "interpolated_action_check", "det0_spectrum.actions"),
    (det0_spectrum, "boundary_eigenstate_check", "det0_spectrum.actions"),
    (det0_spectrum, "norm_determinant", "det0_spectrum.overlaps"),
    (det0_spectrum, "norm_direct", "det0_spectrum.overlaps"),
    (det0_spectrum, "scalar_product_determinant", "det0_spectrum.overlaps"),
    (det0_spectrum, "separate_overlap_direct", "det0_spectrum.overlaps"),
    (tt_charges, "build_tt", "tt_charges.build_tt"),
    (tt_charges, "tt_sov_bases", "tt_charges.tt_sov_bases"),
    (tt_charges, "eigenstate_representation_residual", "tt_charges.representation"),
    (tt_charges.ChargeFamily, "charge", "tt_charges.charge"),
    (gl2_model, "gl2_transfer", "gl2_model.transfer"),
    (gl2_model, "gl2_bases", "gl2_model.bases"),
    (gl2_model, "gl2_eigen_reps", "gl2_model.eigen_reps"),
    (gl2_model, "identity_decomposition_residual", "gl2_model.identity"),
    (suites.Workspace, "gl3", "suites.workspace"),
    (suites.Workspace, "gl3_gram", "suites.workspace"),
    (suites.Workspace, "khat", "suites.workspace"),
    (suites.Workspace, "khat_states", "suites.workspace"),
    (suites.Workspace, "gl2", "suites.workspace"),
    (cli, "run", "cli.report"),
    (np.linalg, "eig", "eig"),
)

# called tens of thousands of times: counted, never spanned
COUNTED = (
    (sov_measure, "classify_pair", "sov_measure.classify_pair"),
    (sov_measure, "expansion_coefficients", "sov_measure.expansion"),
)

PROPERTIES = (
    (sov_measure.GramReport, "max_zero_cosine", "sov_measure.cosine_scan"),
    (sov_measure.GramReport, "max_offdiag_cosine", "sov_measure.cosine_scan"),
)


class Tracer:
    """In-memory spans and counters of one worker process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.timed = {}  # spanned layers, in the order their wrappers were made
        self._stack = []
        self._opaque = 0

    def call(self, layer, fn, args, kwargs, opaque=False):
        self.counts[layer + ".calls"] += 1
        if self._opaque:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = [layer, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        self._opaque += opaque
        try:
            return fn(*args, **kwargs)
        finally:
            self._opaque -= opaque
            self._stack.pop()
            span[2] = time.perf_counter()

    def install(self):
        """Replace every binding of the traced functions by a wrapper."""
        for owner, attr, layer in FUNCTIONS:
            self._rebind(owner, attr, self._spanned(getattr(owner, attr), layer))
        for owner, attr, layer in COUNTED:
            self._rebind(owner, attr, self._counted(getattr(owner, attr), layer))
        for cls, attr, layer in PROPERTIES:
            fget = vars(cls)[attr].fget
            setattr(cls, attr, property(self._spanned(fget, layer)))
        self._rebind(gl3_model, "transfer", self._transfer(gl3_model.transfer))
        self._rebind(gl3_model, "fused_apply", self._fused_apply(gl3_model.fused_apply))
        setattr(gl3_model.TransferCache, "value",
                self._cache_value(gl3_model.TransferCache.value))
        self._rebind(suites, "run_task", self._run_task(suites.run_task))

    @staticmethod
    def _rebind(owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def _register(self, layer, timed=True):
        """Make ``<layer>.calls`` (and ``<layer>.s`` if timed) metrics of this run."""
        self.counts.setdefault(layer + ".calls", 0)
        if timed:
            self.timed[layer] = None

    def _spanned(self, fn, layer):
        self._register(layer)

        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)
        return wrapper

    def _counted(self, fn, layer):
        counts = self.counts
        key = layer + ".calls"
        self._register(layer, timed=False)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _transfer(self, fn):
        for m in (1, 2, 3):  # the fusion orders of gl(3)
            self._register(f"gl3_model.transfer.m{m}")

        def wrapper(params, m, lam):
            return self.call(f"gl3_model.transfer.m{m}", fn, (params, m, lam), {}, opaque=True)
        return wrapper

    def _fused_apply(self, fn):
        self._register("gl3_model.fused_apply")
        self.counts.update({"gl3_model.fused_apply.cols": 0, "gl3_model.fused_apply.gmac": 0.0})

        def wrapper(params, m, lam, block):
            cols = block.shape[1] if block.ndim == 2 else 1
            bond = 3**m
            macs = (params.sites * 3 * bond**3 + bond**2) * cols * 3**params.sites
            self.counts["gl3_model.fused_apply.cols"] += cols
            self.counts["gl3_model.fused_apply.gmac"] += macs / 1e9
            return self.call("gl3_model.fused_apply", fn, (params, m, lam, block), {})
        return wrapper

    def _cache_value(self, fn):
        counts = self.counts
        counts.update({"gl3_model.cache.hits": 0, "gl3_model.cache.misses": 0})

        def wrapper(cache, m, lam):
            hit = (m, complex(lam)) in cache._store
            counts["gl3_model.cache.hits" if hit else "gl3_model.cache.misses"] += 1
            return fn(cache, m, lam)
        return wrapper

    def _run_task(self, fn):
        for name in suites.SUITES:
            self._register(f"suites.task.{name}")

        def wrapper(name, *args, **kwargs):
            return self.call(f"suites.task.{name}", fn, (name,) + args, kwargs)
        return wrapper

    def self_times(self):
        """Per-layer sum of span duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def metrics(self, report=None):
        """Per-layer metrics of this process; ``report`` is a verify report."""
        selfs = self.self_times()
        out = {f"{layer}.s": selfs.get(layer, 0.0) for layer in self.timed}
        out.update(self.counts)
        hits, misses = out["gl3_model.cache.hits"], out["gl3_model.cache.misses"]
        out["gl3_model.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        retries = excluded = 0
        for res in (report or {}).get("results", []):
            retries = max(retries, len(res["retries"]))
            excluded += len(res["details"].get("excluded_ambiguous", []))
        out["suites.retries"] = retries
        out["suites.excluded_ambiguous"] = excluded
        out["trace.self_s"] = sum(selfs.values())
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")
