"""Reproducible batch runs: configuration, execution and reports.

The command line over it is :mod:`sovlab.commands`; this module does not
import click.  Run configurations are JSON; complex numbers are two-element
arrays ``[re, im]``, rationals are strings ``"p/q"`` resolved to doubles at
load.  Reports are JSON with sorted keys; with a fixed seed their numeric
fields are bit-identical across runs on one platform (wall-clock timings live
in a separate ``timings`` block).  The environment variable
``SOVLAB_THREADS``, an integer >= 1, caps the BLAS thread pools for the whole
process.
"""

import ctypes
import json
import numbers
import os
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, EigFailure, SovLabError, SpectrumNotSimple
from .gl3_model import TwistData, check_gl2_twist, xi_separation
from .suites import DEFAULT_TASKS, SUITES, Workspace, run_task, validate_tasks


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
    """Accept numbers, "p/q" strings and [re, im] pairs; a bool is not a number."""
    if isinstance(value, str):
        return complex(Fraction(value))
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigError(f"complex values are [re, im] pairs, got {value!r}")
        return complex(parse_scalar(value[0]).real, parse_scalar(value[1]).real)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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


def _integer(raw, key, default, low):
    """``raw[key]``, or ``default`` when it is absent, if it is an integer
    >= ``low``; a float, a bool or a string is a :class:`ConfigError`."""
    value = raw.get(key, default)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")
    return int(value)


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
    cfg["sites"] = _integer(raw, "sites", 2, 1)
    cfg["seed"] = _integer(raw, "seed", 0, 0)
    cfg["eta"] = parse_scalar(raw["eta"]) if "eta" in raw else None
    if cfg["eta"] == 0:
        raise ConfigError("eta must be nonzero")

    xi = raw.get("xi")
    cfg["xi"] = None
    if xi is not None:
        if not isinstance(xi, list):
            raise ConfigError(f"xi must be a list of {cfg['sites']} values, got {xi!r}")
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
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in tol.values()):
        raise ConfigError(f"tolerances must be numbers, got {tol!r}")
    cfg["tolerances"] = {k: float(v) for k, v in tol.items()}
    if not all(0 <= v < np.inf for v in cfg["tolerances"].values()):
        raise ConfigError(f"tolerances must be finite and >= 0, got {cfg['tolerances']}")

    tasks = raw.get("tasks")
    if tasks is None:
        tasks = DEFAULT_TASKS[cfg["algebra"]]
    validate_tasks(tasks, cfg["algebra"])
    cfg["tasks"] = list(tasks)
    cfg["out"] = raw.get("out")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"out must be a directory name, got {cfg['out']!r}")
    cfg["parallel"] = raw.get("parallel", False)
    if not isinstance(cfg["parallel"], bool):
        raise ConfigError(f"parallel must be true or false, got {cfg['parallel']!r}")
    return cfg


def status_line(name, passed, max_residual, tolerance):
    """One task's line, as ``run`` echoes it and ``sovlab report`` prints it."""
    status = "pass" if passed else "FAIL"
    return f"{name:16s} {status}  max_residual={max_residual:.3e}  tol={tolerance:.0e}"


def run(cfg, echo=print):
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
