"""The ``sovlab`` command line: click commands over :mod:`sovlab.cli`'s
configuration, run and report functions."""

import csv
import json
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .cli import _limit_threads, resolve_config, run, status_line
from .errors import ConfigError, SizeCapError
from .gl3_model import ModelParams, TwistData, fused_apply, transfer
from .numkernel import rel_residual, require_dense
from .sampling import ParameterSampler
from .suites import SUITES


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
        report = run(cfg, echo=click.echo)
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
