#!/usr/bin/env python3
"""Compare a base revision with this tree on one perfbench workload.

    python3 scripts/perf_pairs.py --base REV --pairs N --workload W \
        [--seconds S]

Checks REV out with `git worktree` into a temporary directory, removed at
exit. Then runs `perfbench/run.py --trace 0` once per side for each of N
pairs, alternating which side runs first; pair i runs seed SEED_BASE + i on
both sides. Each tree builds perfbench into its own .bench_build/, so the
first pair also pays two builds (outside the timed phase).

For every end-to-end metric BENCHMARK.json declares, prints each side's
median and quartiles, the pairs the change won (ties count for neither
side), and whether a gain claim holds: the change wins at least nine tenths
of the pairs, and its median beats the base's by more than the base's
interquartile range. Exits non-zero when a run fails.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 901


def run_side(tree, workload, seed, seconds):
    """One perfbench run in `tree`: {metric: value}."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each tree builds its own binary
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("%s exited %d in %s" %
                           (" ".join(cmd[1:]), proc.returncode, tree))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric, base, change):
    """One report row: both sides' medians and quartiles, the change's wins
    and whether the claim rule holds."""
    lower = metric["better"] == "lower"
    name = metric["name"]
    wins = sum(1 for b, c in zip(base[name], change[name])
               if (c < b if lower else c > b))
    bq1, bmed, bq3 = quartiles(base[name])
    cq1, cmed, cq3 = quartiles(change[name])
    gap = bmed - cmed if lower else cmed - bmed
    holds = wins * 10 >= 9 * len(base[name]) and gap > bq3 - bq1
    return "%-14s %-6s %30s %30s %4d/%-3d %s" % (
        name, metric["better"], "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
        "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3), wins, len(base[name]),
        "holds" if holds else "no")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare")
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="perf_pairs-")
    base_tree = os.path.join(tmp, "base")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        base_tree, args.base], check=True,
                       stdout=subprocess.DEVNULL)
        sides = {"base": base_tree, "change": ROOT}
        runs = {"base": {}, "change": {}}
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                got = run_side(sides[side], args.workload, seed, args.seconds)
                for name, value in got.items():
                    runs[side].setdefault(name, []).append(value)
            print("pair %d (seed %d, %s first): %s" % (
                i, seed, order[0], "  ".join(
                    "%s %.4g/%.4g" % (m["name"], runs["base"][m["name"]][-1],
                                      runs["change"][m["name"]][-1])
                    for m in metrics)), file=sys.stderr)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        base_tree], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"])
        shutil.rmtree(tmp, ignore_errors=True)

    print("workload %s, %d pairs, %d s, seeds %d-%d, base %s" % (
        args.workload, args.pairs, args.seconds, SEED_BASE,
        SEED_BASE + args.pairs - 1, args.base))
    print("%-14s %-6s %30s %30s %8s %s" % (
        "metric", "better", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "claim"))
    for metric in metrics:
        print(summarize(metric, runs["base"], runs["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
