"""Reproducible batch driver.

Run configurations are JSON; complex numbers are two-element arrays
``[re, im]``, rationals are strings ``"p/q"`` resolved to doubles at load.
Reports are JSON with sorted keys; with a fixed seed their numeric fields are
bit-identical across runs on one platform (wall-clock timings live in a
separate ``timings`` block).  The environment variable ``SOVLAB_THREADS``,
an integer >= 1, caps the BLAS thread pools for the whole process.
"""

import csv
import ctypes
import json
import os
import time
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ConfigError, EigFailure, SizeCapError, SovLabError, SpectrumNotSimple
from .gl3_model import (ModelParams, TwistData, check_gl2_twist, fused_apply, transfer,
                        xi_separation)
from .numkernel import rel_residual, require_dense
from .sampling import ParameterSampler
from .suites import SUITES, Workspace, run_task, validate_tasks


#: thread-count setters of the OpenBLAS builds numpy and scipy ship; each has
#: a matching ``_get_`` reader
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def _openblas_pools():
    """(set, get) thread-count functions of every OpenBLAS library loaded here."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:  # no /proc: no pool can be found, so none is capped
        return []
    pools = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                set_fn, get_fn = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                pools.append((set_fn, get_fn))
                break
    return pools


def _thread_limit(parallel=False):
    """The BLAS thread cap: SOVLAB_THREADS when it is set and not empty,
    otherwise one thread, or None (no cap) under --parallel.  A value that is
    not an integer >= 1 is a :class:`ConfigError`."""
    cap = os.environ.get("SOVLAB_THREADS")
    if not cap:
        return None if parallel else 1
    try:
        if int(cap) >= 1:
            return int(cap)
    except ValueError:
        pass
    raise ConfigError(f"SOVLAB_THREADS must be an integer >= 1, got {cap!r}")


def _limit_threads(parallel=False):
    """Cap the BLAS pools at :func:`_thread_limit`, which is read first.

    Sequential execution is the default because threaded BLAS reductions can
    reorder floating-point sums, which would undermine the bit-reproducibility
    of reports.  Returns the largest pool size read back from the loaded
    OpenBLAS libraries, or None when none is loaded.
    """
    limit = _thread_limit(parallel)
    pools = _openblas_pools()
    if limit is not None:
        for set_fn, _ in pools:
            set_fn(limit)
    return max((get_fn() for _, get_fn in pools), default=None)


def parse_scalar(value):
    """Accept numbers, "p/q" strings and [re, im] pairs."""
    if isinstance(value, str):
        return complex(Fraction(value))
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"complex values are [re, im] pairs, got {value!r}")
        return complex(parse_scalar(value[0]).real, parse_scalar(value[1]).real)
    if isinstance(value, (int, float)):
        return complex(value)
    raise ConfigError(f"cannot parse scalar {value!r}")


def _encode(value):
    """JSON-encode complex scalars and arrays as [re, im] pairs."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, TwistData):
        return _encode({k: getattr(value, k) for k in ("case", "k_matrix", "w", "k_jordan")})
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _square(rows, n):
    mat = np.array([[parse_scalar(v) for v in row] for row in rows], dtype=complex)
    if mat.shape != (n, n):
        raise ConfigError(f"twist matrices are {n}x{n}, got {rows!r}")
    return mat


def _twist(twist, algebra):
    """The configured twist: a 2x2 matrix for gl2, :class:`TwistData` for gl3."""
    forms = [k for k in ("matrix", "eigenvalues", "w") if k in twist]
    if ("k_jordan" in twist) != ("w" in twist):
        raise ConfigError("jordan twists need both w and k_jordan")
    if len(forms) != 1:
        raise ConfigError("exactly one twist form required: matrix | (w, k_jordan) | eigenvalues")
    if algebra == "gl2":
        if "matrix" not in twist:
            raise ConfigError("gl2 twists are given as a matrix")
        return check_gl2_twist(_square(twist["matrix"], 2)).tolist()
    if "matrix" in twist:
        return TwistData.from_matrix(_square(twist["matrix"], 3))
    if "eigenvalues" in twist:
        return TwistData.from_eigenvalues([parse_scalar(v) for v in twist["eigenvalues"]])
    return TwistData.from_jordan(_square(twist["w"], 3), _square(twist["k_jordan"], 3))


def resolve_config(path=None, overrides=None):
    """Load, validate and normalize a run configuration.  An override of None
    keeps the file's value, except ``tasks``, where None drops the file's list
    so that the algebra's default list applies.  A value that cannot be read,
    or chain data that no chain can have, is a :class:`ConfigError`."""
    try:
        return _resolve(path, overrides)
    except (ArithmeticError, TypeError, ValueError, EigFailure, SpectrumNotSimple) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from None


def _resolve(path, overrides):
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
    raw = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None or key == "tasks":
            raw[key] = val

    cfg = {}
    cfg["algebra"] = raw.get("algebra", "gl3")
    if cfg["algebra"] not in ("gl3", "gl2"):
        raise ConfigError("algebra must be gl3 or gl2")
    cfg["sites"] = int(raw.get("sites", 2))
    if cfg["sites"] < 1:
        raise ConfigError("sites must be >= 1")
    cfg["seed"] = int(raw.get("seed", 0))
    cfg["eta"] = parse_scalar(raw["eta"]) if "eta" in raw else None
    if cfg["eta"] == 0:
        raise ConfigError("eta must be nonzero")

    xi = raw.get("xi")
    cfg["xi"] = None
    if isinstance(xi, dict):
        if "seed" in xi:
            cfg["seed"] = int(xi["seed"])
    elif xi is not None:
        cfg["xi"] = [parse_scalar(x) for x in xi]
        if len(cfg["xi"]) != cfg["sites"]:
            raise ConfigError("xi list length must equal sites")
        # without a configured eta only xi_i != xi_j is decided here
        if xi_separation(cfg["xi"], cfg["eta"] or 0) < 1e-12:
            raise ConfigError("inhomogeneities must satisfy xi_i - xi_j not in {0, +eta, -eta}")

    twist = raw.get("twist")
    cfg["twist"] = None if twist is None else _twist(twist, cfg["algebra"])

    ref = raw.get("reference")
    cfg["reference"] = None if ref is None else [parse_scalar(v) for v in ref]
    need = 3 if cfg["algebra"] == "gl3" else 2
    if ref is not None and len(cfg["reference"]) != need:
        raise ConfigError(f"reference needs {need} components for {cfg['algebra']}")

    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be a mapping suite -> float")
    unknown = sorted(set(tol) - set(SUITES))
    if unknown:
        raise ConfigError(f"unknown tolerance suites {unknown}; known: {sorted(SUITES)}")
    cfg["tolerances"] = {k: float(v) for k, v in tol.items()}
    if not all(0 <= v < np.inf for v in cfg["tolerances"].values()):
        raise ConfigError(f"tolerances must be finite and >= 0, got {cfg['tolerances']}")

    tasks = raw.get("tasks")
    if tasks is None:
        tasks = [t for t in SUITES if cfg["algebra"] == "gl3" or t in ("gram", "measure", "gl2")]
    validate_tasks(tasks, cfg["algebra"])
    cfg["tasks"] = list(tasks)
    cfg["out"] = raw.get("out")
    cfg["parallel"] = bool(raw.get("parallel", False))
    return cfg


def status_line(name, passed, max_residual, tolerance):
    """One task's line, as ``run`` echoes it and ``sovlab report`` prints it."""
    status = "pass" if passed else "FAIL"
    return f"{name:16s} {status}  max_residual={max_residual:.3e}  tol={tolerance:.0e}"


def run(cfg, echo=click.echo):
    """Execute the configured tasks and write the report; the caller
    inspects ``all_passed``."""
    threads = _limit_threads(cfg.get("parallel", False))
    out_dir = Path(cfg["out"]) if cfg.get("out") else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    ws = Workspace(
        cfg["algebra"],
        cfg["sites"],
        cfg["seed"],
        eta=cfg["eta"],
        xi=cfg["xi"],
        twist=cfg["twist"],
        reference=cfg["reference"],
    )
    results = []
    start = time.perf_counter()
    try:
        ws.build()
    except SovLabError:
        pass  # each task that needs the chain raises the error again and records it
    timings = {"workspace": time.perf_counter() - start, "tasks": {}}
    for name in cfg["tasks"]:
        start = time.perf_counter()
        res = run_task(name, ws, cfg["tolerances"], out_dir=out_dir)
        timings["tasks"][name] = time.perf_counter() - start
        results.append(res)
        echo(status_line(name, res.passed, res.max_residual, res.tolerance))

    report = {
        "version": __version__,
        "config": _encode(cfg),
        "thread_cap": threads,
        "results": [
            {
                "task": r.name,
                "passed": r.passed,
                "tolerance": r.tolerance,
                "max_residual": r.max_residual,
                "details": _encode(r.details),
                "retries": _encode(r.retries),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
        "timings": {**timings, "transfer_cache": ws.cache_counts()},
    }
    if out_dir is not None:
        with open(out_dir / "report.json", "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
    return report


@click.group()
@click.version_option(__version__)
def main():
    """Verification lab for SoV bases of twisted gl(3)/gl(2) chains."""


def _common_overrides(sites, seed, tol, out, parallel=None):
    over = {}
    if sites is not None:
        over["sites"] = sites
    if seed is not None:
        over["seed"] = seed
    if out is not None:
        over["out"] = out
    if tol is not None:
        over["tolerances"] = {name: tol for name in SUITES}
    if parallel:
        over["parallel"] = True
    return over


def _run_or_exit(config_path, over):
    """Resolve and run one configuration; exit with status 1 if a task fails."""
    try:
        cfg = resolve_config(config_path, over)
        report = run(cfg)
    except ConfigError as exc:
        raise click.ClickException(f"config error: {exc}")
    if not report["all_passed"]:
        raise SystemExit(1)


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--all", "run_all", is_flag=True, help="Run every registered suite.")
@click.option("-N", "--sites", "sites", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tol", type=float, default=None, help="Override every suite tolerance.")
@click.option("--out", type=click.Path(), default=None)
@click.option("--suite", "suite_csv", default=None, help="Comma-separated suite names.")
@click.option("--parallel", is_flag=True,
              help="Allow threaded linear algebra inside tasks (may cost bit-reproducibility).")
def verify(config_path, run_all, sites, seed, tol, out, suite_csv, parallel):
    """Run verification suites and emit report.json."""
    over = _common_overrides(sites, seed, tol, out, parallel)
    if suite_csv:
        over["tasks"] = [s.strip() for s in suite_csv.split(",") if s.strip()]
    elif run_all:
        over["tasks"] = None  # drops a configured list: the algebra's default tasks run
    _run_or_exit(config_path, over)


def _task_command(name, tasks, help_text, algebra_option):
    """Register a command running the fixed ``tasks`` with output into --out."""
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True), default=None),
        click.option("-N", "--sites", type=int, default=None),
        click.option("--seed", type=int, default=None),
        click.option("--out", type=click.Path(), default=".", show_default=True),
    ]
    if algebra_option:
        options.append(click.option("--algebra", type=click.Choice(["gl3", "gl2"]), default=None))

    def command(config_path, sites, seed, out, algebra=None):
        over = _common_overrides(sites, seed, None, out)
        over["tasks"] = list(tasks)
        if algebra:
            over["algebra"] = algebra
        _run_or_exit(config_path, over)

    for option in reversed(options):
        command = option(command)
    return main.command(name, help=help_text)(command)


gram = _task_command("gram", ["gram", "measure"],
                     "Write the coupling matrix (gram.csv) and its pattern report.",
                     algebra_option=True)
measure = _task_command("measure", ["measure"], "Write gram.csv and the inverse measure.csv.",
                        algebra_option=True)
scalar_product = _task_command("scalar-product", ["scalarproducts"],
                               "Determinant scalar products against the direct summation oracle.",
                               algebra_option=False)


@main.command()
@click.option("--n-min", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--n-max", type=int, default=9, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=".", show_default=True)
def bench(n_min, n_max, seed, out):
    """Time dense transfer assembly against the matrix-free applier, and
    check the applier against dense T_1 where it is assembled (N <= 6)."""
    if n_max < n_min:
        raise click.UsageError(f"--n-max {n_max} is below --n-min {n_min}")
    try:
        _limit_threads()
    except ConfigError as exc:
        raise click.ClickException(f"config error: {exc}")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in range(n_min, n_max + 1):
        s = ParameterSampler(seed + n)
        eta = s.shift()
        twist = TwistData.from_eigenvalues(s.distinct_eigenvalues())
        params = ModelParams(n, eta, s.inhomogeneities(n, eta), twist)
        lam = s.complex_rational()
        rng = np.random.default_rng(seed + n)
        vec = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
        scale = complex(rng.standard_normal(), rng.standard_normal())

        t0 = time.perf_counter()
        w1 = fused_apply(params, 1, lam, vec)
        free_time = time.perf_counter() - t0
        # homogeneity under a non-real scalar holds for any linear map, and
        # fails for an antilinear term; the dense T_1 below is the oracle
        w2 = fused_apply(params, 1, lam, scale * vec)
        lin = rel_residual(w2 - scale * w1, scale * w1)

        dense_time, dense_note, dense_resid = None, "", ""
        if n <= 6:  # within the dense cap
            t0 = time.perf_counter()
            t1 = transfer(params, 1, lam)
            dense_time = time.perf_counter() - t0
            want = t1 @ vec
            dense_resid = f"{rel_residual(w1 - want, want):.3e}"
        else:
            try:
                require_dense(params.dim)
                dense_note = "skipped (time budget)"
            except SizeCapError:
                dense_note = "SizeCap"
        rows.append(
            {
                "sites": n,
                "dim": params.dim,
                "free_seconds": f"{free_time:.6f}",
                "dense_seconds": "" if dense_time is None else f"{dense_time:.6f}",
                "dense_status": dense_note or "ok",
                "linearity_residual": f"{lin:.3e}",
                "dense_residual": dense_resid,
            }
        )
        click.echo(
            f"N={n}  matrix-free {free_time * 1e3:8.2f} ms   "
            f"dense {dense_note or f'{dense_time * 1e3:8.2f} ms'}"
        )
    with open(out_dir / "bench.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@main.command()
@click.argument("report_path", type=click.Path(exists=True))
def report(report_path):
    """Summarize an existing report.json."""
    with open(report_path) as fh:
        data = json.load(fh)
    click.echo(f"sovlab {data.get('version')}  all_passed={data.get('all_passed')}")
    for res in data.get("results", []):
        click.echo(status_line(res["task"], res["passed"], res["max_residual"], res["tolerance"]))


if __name__ == "__main__":
    main()
