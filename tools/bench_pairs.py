"""Interleaved benchmark pairs of two trees, summarized into a BENCH_<tag>.json.

    python tools/bench_pairs.py PARENT CHANGE --tag node_chain \\
        --workload apply-n8 --workload verify-n4 --seeds 1-10 --seconds 10 \\
        --change "what the change does" --parent-commit e63a338

PARENT and CHANGE are two checkouts of the repository.  For each workload and
seed, ``perfbench/run.py --trace 0`` runs once in each tree, back to back, the
parent first on odd seeds and the change first on even ones.  The file
written (in the current directory) holds the command, the host line of the
first run, the order, every pair's result and, per workload and metric, both
sides' medians and quartiles and the pairs the change won (ties count for
neither).  ``gain`` is the claim rule: the change won at least nine pairs in
ten and its median beats the parent's by more than the parent's interquartile
range.  Every metric ``run.py`` reports is better lower.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
INTERLEAVING = ("for each seed the parent commit and the change ran back to back from "
                "clean copies; the parent first on odd seeds")


def run_once(tree, workload, seed, seconds):
    """One ``run.py`` run in ``tree``: its result with the metric values
    flattened, and the host facts from its ``host:`` line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next(json.loads(line[len("host: "):]) for line in lines if line.startswith("host: "))
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result, host


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def summarize(runs):
    """Per metric of a workload's pairs: medians and quartiles of both sides,
    the pairs the change won and whether the claim rule holds."""
    out = {}
    for name in runs[0]["parent"]["metrics"]:
        parent = [run["parent"]["metrics"][name] for run in runs]
        change = [run["change"]["metrics"][name] for run in runs]
        wins = sum(c < p for p, c in zip(parent, change))
        parent_q = quartiles(parent)
        margin = statistics.median(parent) - statistics.median(change)
        out[name] = {
            "pairs": len(runs),
            "parent_median": statistics.median(parent),
            "parent_quartiles": parent_q,
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_lower_pairs": wins,
            "gain": 10 * wins >= 9 * len(runs) and margin > parent_q[1] - parent_q[0],
        }
    return out


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--change", dest="description", required=True,
                        help="one line on what the change does")
    parser.add_argument("--parent-commit", required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("give at least two seeds, so that quartiles exist")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    record = {"change": args.description, "command": COMMAND.format(seconds=args.seconds),
              "host": None, "interleaving": INTERLEAVING,
              "parent_commit": args.parent_commit, "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            pair = {"seed": seed}
            for side in order:
                result, host = run_once(trees[side], workload, seed, args.seconds)
                record["host"] = record["host"] or host
                pair[side] = dict(result, first=side == order[0])
                print(f"{workload} seed {seed} {side}: wall_s {result['metrics']['wall_s']:.4f}"
                      f" failed {result['failed']}/{result['attempted']}", flush=True)
            runs.append(pair)
        record["workloads"][workload] = {"runs": runs, "summary": summarize(runs)}
    path = f"BENCH_{args.tag}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: {s['parent_median']:.4g} -> {s['change_median']:.4g}"
                  f"  change lower in {s['change_lower_pairs']}/{s['pairs']}"
                  f"  gain {s['gain']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
