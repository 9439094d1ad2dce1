"""sovlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  Each
workload execution is a fresh single-threaded worker process (BLAS and OpenMP
pools pinned to one thread), and workers run one at a time.  Executions repeat
until ``--seconds`` have passed, at least twice, so that the report numerics of
one seed can be compared.  With ``--trace 1`` traced and untraced executions
alternate; the traced ones give the per-layer metrics and the difference of the
two medians is the tracing overhead.

The last line of standard output is the JSON result; the lines before it name
every failed operation and the host facts.  Spans of traced runs are written
to .perfbench_out/spans/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import THREAD_VARS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_EXECUTIONS = 2
RUN_LIMIT_S = 170  # every run must end within 180 s
SPAN_DIR = os.path.join(".perfbench_out", "spans")


def spawn(spec, deadline):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def execute(workload, seed, seconds, trace, deadline):
    """Run executions until the budget is used and return them."""
    base = {"workload": workload, "seed": seed, "span_dir": SPAN_DIR}
    spawn(dict(base, warmup=True, trace=False), deadline)  # warm the bytecode cache
    start = time.monotonic()
    executions = []
    while True:
        traced = bool(trace) and len(executions) % 2 == 1
        res = spawn(dict(base, trace=traced, iteration=len(executions)), deadline)
        res["traced"] = traced
        executions.append(res)
        if len(executions) >= MIN_EXECUTIONS and time.monotonic() - start >= seconds:
            break
    return executions


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def summarize(workload, seed, trace, executions):
    plain = [res for res in executions if not res["traced"]]
    traced = [res for res in executions if res["traced"]]
    # Every execution runs the same operations of the seed, so each is counted
    # once: attempted and failed depend on the seed, not on how many
    # executions fitted in the run.
    ops = executions[0]["ops"]
    failed = [op for op in ops if not op["ok"]]
    problems = [p for res in executions for p in res["problems"]]
    if len({res["digest"] for res in executions}) != 1:
        problems.append("report numerics differ between executions of one seed")
    if any(outcomes(res["ops"]) != outcomes(ops) for res in executions):
        problems.append("failed operations differ between executions of one seed")
    if WORKLOADS[workload]["kind"] == "apply" and failed:
        problems.append("a matrix-free identity fails")
    if trace:
        counts = [count_metrics(res["layers"]) for res in traced]
        if any(c != counts[0] for c in counts):
            problems.append("per-layer counts differ between traced executions")
        layers = {name: statistics.median(res["layers"][name] for res in traced)
                  for name in traced[0]["layers"]}
        layers["trace.wall_s"] = median_of(traced, "wall_s")
        layers["trace.untraced_wall_s"] = median_of(plain, "wall_s")
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["trace.remainder_s"] = statistics.median(
            res["wall_s"] - res["layers"]["trace.self_s"] for res in traced)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median_of(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": median_of(executions, "setup_s"), "unit": "s"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
        }

    print(f"workload {workload} seed {seed}: {len(executions)} executions "
          f"({len(traced)} traced)")
    print("wall_s per execution: " + " ".join(f"{res['wall_s']:.3f}" for res in executions))
    print("setup_s per execution: " + " ".join(f"{res['setup_s']:.3f}" for res in executions))
    print("host: " + json.dumps(executions[0]["facts"], sort_keys=True))
    print(f"ops_failed_frac: {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}"
          f" (per execution)")
    for op in failed:
        print(f"failed: {op['name']} residual={op['residual']:.3e} tol={op['tol']:.0e}"
              + (f" error={op['error']}" if op["error"] else ""))
    for problem in sorted(set(problems)):
        print(f"check: {problem}")
    return {"correct": not problems, "attempted": len(ops), "failed": len(failed),
            "metrics": metrics}


def outcomes(ops):
    return [(op["name"], op["ok"]) for op in ops]


def count_metrics(layers):
    """The per-layer metrics that are counts, which must repeat exactly."""
    return {name: value for name, value in layers.items() if layer_unit(name) == "count"}


def layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".gmac"):
        return "Gmac"
    if name.endswith(".hit_ratio"):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "sovlab", "__init__.py")):
        print("run.py: no src/sovlab here; run it from the sovlab repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    executions = execute(args.workload, args.seed, args.seconds, args.trace, deadline)
    result = summarize(args.workload, args.seed, args.trace, executions)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
