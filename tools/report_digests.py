"""Digest the reports of a fixed set of runs, or compare two digest files.

The cases are gl(3) ``verify --all`` at N = 3 and 4 and the gl(2) default
tasks at N = 2..5, each on seeds 1..13, and gl(3) ``verify --all`` at N = 3
and 4 on seeds 1..13 with three configured twists (one W on the sampler's
grid, each K_J fixed; eta, xi and the reference come from the seed): a
case-ii and a case-iii Jordan form, and a simple spectrum with det K = 0,
the paper's first regime: 156 runs.  A run's digest is the
SHA-256 of its report as sorted JSON, with the wall-clock ``timings`` block
and ``config.out`` dropped, so two trees that compute the same bits give the
same digests.

    PYTHONPATH=src python tools/report_digests.py digests.json
    python tools/report_digests.py --compare before.json after.json

The first form runs every case on the ``sovlab`` found on ``PYTHONPATH`` and
writes ``{case: {"digest": ..., "failed": [task, ...], "report": ...}}``,
the report stripped as it was digested.  ``--compare`` lists the cases whose
digests differ and exits 1 when any do; each case whose failing suites differ
gets a line ``failing: <case> +task -task``, with + for a suite failing only
in B and - for one failing only in A.  Where both files hold reports, every
field path whose value moved, appeared (``new``) or vanished (``gone``) gets
one line with its case count and, for numbers, the largest magnitude before
and after over those cases.  Results are indexed by task name and list
positions are folded into ``[]``, so ``results.gram.details.scale`` names one
field in every case.  When the reader of stdout closes it (``| head``), the
script stops quietly with status 1.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from collections import defaultdict

SEEDS = range(1, 14)
W_GRID = [["1", "1/4", "0"], ["-1/8", "1", "3/8"], ["1/2", "0", "1"]]
#: configured twists: a 2+1 block, a full 3-block, and a simple spectrum with det K = 0
CONFIGURED_TWISTS = {
    "ii": {"w": W_GRID, "k_jordan": [[[0.8, 0.3], 1, 0], [0, [0.8, 0.3], 0], [0, 0, [-0.9, 0.5]]]},
    "iii": {"w": W_GRID, "k_jordan": [[[0.7, -0.4], 1, 0], [0, [0.7, -0.4], 1], [0, 0, [0.7, -0.4]]]},
    "det0": {"w": W_GRID, "k_jordan": [[[0.8, 0.3], 0, 0], [0, [-0.9, 0.5], 0], [0, 0, 0]]},
}
#: (case-name prefix, algebra, sites, configured twist or None for the sampled one)
CASES = ([("gl3", "gl3", n, None) for n in (3, 4)]
         + [("gl2", "gl2", n, None) for n in (2, 3, 4, 5)]
         + [(f"gl3{case}", "gl3", n, twist) for case, twist in CONFIGURED_TWISTS.items()
            for n in (3, 4)])


def digests():
    from sovlab.cli import resolve_config, run

    out = {}
    for name, algebra, sites, twist in CASES:
        for seed in SEEDS:
            over = {"algebra": algebra, "sites": sites, "seed": seed, "twist": twist}
            report = run(resolve_config(None, over), echo=lambda *_: None)
            report.pop("timings")
            report["config"].pop("out")
            text = json.dumps(report, sort_keys=True)
            out[f"{name}-N{sites}-seed{seed}"] = {
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "failed": [r["task"] for r in report["results"] if not r["passed"]],
                "report": json.loads(text),
            }
    return out


def leaves(value, path="", field=""):
    """``{(path, field): leaf}`` of a report: ``path`` is exact, ``field`` folds
    list positions into ``[]``; results are keyed by task name."""
    if isinstance(value, dict):
        items = [(f".{k}", f".{k}", v) for k, v in value.items()]
    elif path == ".results":
        items = [(f".{r['task']}", f".{r['task']}", r) for r in value]
    elif isinstance(value, list):
        items = [(f"[{i}]", "[]", v) for i, v in enumerate(value)]
    else:
        return {(path, field): value}
    out = {}
    for key, fkey, v in items:
        out.update(leaves(v, path + key, field + fkey))
    return out


def _magnitude(values):
    nums = [abs(v) for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
    if not nums:
        return None
    return max(nums, key=lambda x: (math.isnan(x), x))


def field_changes(a, b):
    """``{field: (kind, cases, before, after)}`` over the cases holding a
    report in both tables; ``before``/``after`` are the largest magnitudes,
    or None where the field holds no number."""
    found = defaultdict(lambda: [set(), [], []])
    for case in sorted(a.keys() & b.keys()):
        if "report" not in a[case] or "report" not in b[case]:
            continue
        la, lb = leaves(a[case]["report"]), leaves(b[case]["report"])
        for key in la.keys() | lb.keys():
            if key not in lb:
                kind = "gone"
            elif key not in la:
                kind = "new"
            elif json.dumps(la[key]) != json.dumps(lb[key]):
                kind = "moved"
            else:
                continue
            entry = found[(kind, key[1][1:])]
            entry[0].add(case)
            if key in la:
                entry[1].append(la[key])
            if key in lb:
                entry[2].append(lb[key])
    return {key: (len(cases), _magnitude(before), _magnitude(after))
            for key, (cases, before, after) in found.items()}


def compare(path_a, path_b):
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    differ = sorted(k for k in a.keys() | b.keys()
                    if a.get(k, {}).get("digest") != b.get(k, {}).get("digest"))
    for case in differ:
        print(f"differs: {case}")
    for case in sorted(a.keys() | b.keys()):
        before = set(a.get(case, {}).get("failed", ()))
        after = set(b.get(case, {}).get("failed", ()))
        if before != after:
            moves = [f"+{t}" for t in sorted(after - before)]
            moves += [f"-{t}" for t in sorted(before - after)]
            print(f"failing: {case} {' '.join(moves)}")
    for (kind, field), (cases, before, after) in sorted(field_changes(a, b).items()):
        worst = "" if before is None and after is None else f"  {before!r} -> {after!r}"
        print(f"{kind}: {field}  {cases} cases{worst}")
    for name, table in ((path_a, a), (path_b, b)):
        failing = sum(len(v["failed"]) for v in table.values())
        print(f"{name}: {len(table)} cases, {failing} failing suites")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} cases differ")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two digest files to compare")
    parser.add_argument("output", nargs="?", help="digest file to write")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.output:
        parser.error("give an output file, or --compare A B")
    table = digests()
    with open(args.output, "w") as fh:
        json.dump(table, fh, sort_keys=True)
    failing = sum(len(v["failed"]) for v in table.values())
    print(f"{len(table)} cases, {failing} failing suites -> {args.output}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop without a traceback, and
        # point stdout at devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
