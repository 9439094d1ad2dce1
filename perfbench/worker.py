"""One workload execution in a fresh process.

    python3 perfbench/worker.py '<spec json>'

``run.py`` starts this from the repository root with the BLAS/OpenMP thread
variables already pinned to 1, so they are in effect before numpy loads.  The
spec names the workload, the seed, whether to trace, whether this is only a
warm-up that stops after set-up, and the parent's monotonic clock reading just
before the spawn, from which set-up time is measured.  The last line of standard output is one JSON
object with the measurements, the operations and their outcome, and a digest
of the report numerics.
"""

import hashlib
import json
import math
import os
import resource
import sys
import time

# The program receives only N, the seed, the suite list and, on apply-n8, the
# vectors generated here from the seed.  Why each workload exists is recorded
# in BENCHMARK.json and README.md next to this file.
WORKLOADS = {
    "verify-n4": {"kind": "verify", "config": {"algebra": "gl3", "sites": 4}},
    "apply-n8": {"kind": "apply", "config": {"algebra": "gl3", "sites": 8, "tasks": []}},
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def numerics_digest(blob):
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def run_verify(cli, cfg):
    """``sovlab verify`` without --out: resolve_config + run, then check that
    every requested task is reported with a finite residual or an error."""
    lines = []
    report = cli.run(cfg, echo=lines.append)
    report = json.loads(json.dumps(report, sort_keys=True))  # as report.json holds it
    problems = []
    names = [res["task"] for res in report["results"]]
    if names != cfg["tasks"]:
        problems.append(f"report lists tasks {names}, requested {cfg['tasks']}")
    ops = []
    for res in report["results"]:
        error = res["details"].get("error")
        if not (math.isfinite(res["max_residual"]) or error):
            problems.append(f"{res['task']}: residual {res['max_residual']} and no error")
        ops.append({"name": res["task"], "ok": bool(res["passed"]),
                    "residual": res["max_residual"], "tol": res["tolerance"], "error": error})
    blob = dict(report)
    blob.pop("timings")
    blob["config"].pop("out")
    return ops, problems, numerics_digest(blob), report


def run_apply(cfg):
    """Matrix-free T_1, T_2, T_3 on one random vector: the quantum determinant
    at a spectral point, T_1 T_1 = T_2 at every site and T_1 T_2 = T_3 at one
    seed-chosen site, each against the fusion suite's tolerance."""
    import numpy as np
    from sovlab.gl3_model import ModelParams, TwistData, fused_apply, quantum_determinant
    from sovlab.sampling import ParameterSampler
    from sovlab.suites import DEFAULT_TOLERANCES

    n, seed = cfg["sites"], cfg["seed"]
    tol = DEFAULT_TOLERANCES["fusion"]
    s = ParameterSampler(seed)
    eta = s.shift()
    twist = TwistData.from_eigenvalues(s.distinct_eigenvalues(), w=s.invertible3())
    params = ModelParams(n, eta, s.inhomogeneities(n, eta), twist)
    lam = s.spectral_point(params.xi, eta)
    rng = np.random.default_rng(seed)
    vec = (rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim))[:, None]
    site = int(rng.integers(0, n))

    def t(m, x, v):
        return fused_apply(params, m, x, v)

    def qdet():
        expected = quantum_determinant(params, lam) * vec
        return np.abs(t(3, lam, vec) - expected).max() / np.abs(expected).max()

    def fusion(m, a):
        x = params.xi[a]
        lhs = t(1, x, t(m, x - eta, vec))
        rhs = t(m + 1, x, vec)
        return np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), np.abs(rhs).max())

    checks = [("qdet", qdet)]
    checks += [(f"fusion_m1_site{a + 1}", lambda a=a: fusion(1, a)) for a in range(n)]
    checks.append((f"fusion_m2_site{site + 1}", lambda: fusion(2, site)))
    ops = []
    for name, check in checks:
        try:
            residual, error = float(check()), None
        except Exception as exc:  # a raised error is a failed operation, not a crash
            residual, error = float("inf"), f"{type(exc).__name__}: {exc}"
        ops.append({"name": name, "ok": error is None and residual <= tol,
                    "residual": residual, "tol": tol, "error": error})
    return ops, [], numerics_digest([op["residual"] for op in ops]), None


def blas_facts():
    """Thread cap actually in effect in every loaded OpenBLAS, plus versions."""
    import ctypes

    import numpy as np
    import scipy

    caps = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                caps[os.path.basename(path)] = fn()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "thread_cap": max(caps.values()) if caps else None,
        "blas_threads": caps,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main():
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    from sovlab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sovlab imported from {cli.__file__}, not from {src}")
    cfg = cli.resolve_config(None, dict(workload["config"], seed=spec["seed"]))
    setup_s = time.monotonic() - spec["spawned"]
    result = {"setup_s": setup_s}
    if spec.get("warmup"):
        print(json.dumps(result))
        return

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(f"{spec['workload']}:{spec['seed']}:{spec['iteration']}")
        tracer.install()
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    if workload["kind"] == "verify":
        ops, problems, digest, report = run_verify(cli, cfg)
    else:
        ops, problems, digest, report = run_apply(cfg)
    wall_s, cpu_s = time.perf_counter() - wall0, cpu_seconds() - cpu0
    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "problems": problems,
        "digest": digest,
        "facts": blas_facts(),
    })
    if tracer is not None:
        result["layers"] = tracer.metrics(report)
        os.makedirs(spec["span_dir"], exist_ok=True)
        tracer.dump(os.path.join(
            spec["span_dir"], f"{spec['workload']}-seed{spec['seed']}-{spec['iteration']}.jsonl"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
