#!/usr/bin/env python3
"""Compare a base revision with this tree on one perfbench workload.

    python3 scripts/perf_pairs.py --base REV --pairs N --workload W \
        [--seconds S] [--json PATH]
    python3 scripts/perf_pairs.py --self-test

Checks REV out with `git clone` into a temporary directory, removed at
exit; the repository's own .git is left as it was. Then runs `perfbench/run.py --trace 0` once per side for each of N
pairs, alternating which side runs first; pair i runs seed SEED_BASE + i on
both sides. Each tree builds perfbench into its own .bench_build/, so the
first pair also pays two builds (outside the timed phase).

For every end-to-end metric BENCHMARK.json declares, prints each side's
median and quartiles, the pairs the change won (ties count for neither
side), and whether a gain claim holds: the change wins at least nine tenths
of the pairs, and its median beats the base's by more than the base's
interquartile range.

It also prints a "no worse" verdict per metric. Each pair gives the
change's relative worsening, (change - base) / base for a lower-is-better
metric and (base - change) / base for a higher-is-better one. A one-sided
sign test at CONFIDENCE, fixed here before any run, turns the sorted
worsenings into an upper bound on their median: the k-th smallest, with k
the least order statistic that the true median stays below with that
confidence. The verdict holds when the bound is inside the metric's
BENCHMARK.json bound. With 10 pairs the bound is the second-largest
worsening; with 6 or fewer, the largest. When it does not hold, the
report says "worse" if the median worsening itself is past the metric's
bound and "unresolved" otherwise: the pairs spread too widely to tell.

--json PATH also writes that summary as one JSON object: per metric each
side's median and quartiles, the wins, the claim verdict and the "no worse"
bound and verdict, plus each side's commit (and whether the tree had
uncommitted edits) and the host note line perfbench printed for it.
--self-test checks both verdicts on synthetic pairs and runs nothing.
Exits non-zero when a run fails or a self-test check does not hold.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 901
CONFIDENCE = 0.95


def run_side(tree, workload, seed, seconds):
    """One perfbench run in `tree`: ({metric: value}, its first note line,
    the host descriptor)."""
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
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, lines[0]


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def worsening(lower, b, c):
    """The change's relative worsening over the base in one pair (negative
    when the change is better)."""
    if b == 0:  # a ratio metric at 0: any move is infinitely large
        if c == 0:
            return 0.0
        return float("inf") if (c > b) == lower else float("-inf")
    return (c - b) / b if lower else (b - c) / b


def median_upper_bound(values):
    """One-sided sign-test upper bound on the median of `values` at
    CONFIDENCE: the k-th smallest value, with k the least index for which
    P(Binomial(n, 1/2) <= k - 1) >= CONFIDENCE (the largest value if no k
    reaches it)."""
    n = len(values)
    below = 0.0
    for k in range(1, n + 1):
        below += math.comb(n, k - 1) / 2 ** n
        if below >= CONFIDENCE:
            return sorted(values)[k - 1]
    return max(values)


def summarize(metric, base, change):
    """One metric's verdict: both sides' medians and quartiles, the
    change's wins, whether the claim rule holds, and the bound on the
    median worsening with its "no worse" verdict."""
    lower = metric["better"] == "lower"
    name = metric["name"]
    wins = sum(1 for b, c in zip(base[name], change[name])
               if (c < b if lower else c > b))
    bq1, bmed, bq3 = quartiles(base[name])
    cq1, cmed, cq3 = quartiles(change[name])
    gap = bmed - cmed if lower else cmed - bmed
    worse = [worsening(lower, b, c)
             for b, c in zip(base[name], change[name])]
    bound = median_upper_bound(worse)
    return {"name": name, "better": metric["better"],
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "wins": wins, "pairs": len(base[name]),
            "claim_holds": wins * 10 >= 9 * len(base[name]) and
            gap > bq3 - bq1,
            "median_worsening": statistics.median(worse),
            "worsening_bound": bound, "allowed": metric["bound"],
            "no_worse": bound <= metric["bound"]}


def row(s):
    """summarize()'s verdicts as one report line."""
    side = lambda q: "%.4g [%.4g, %.4g]" % (q["median"], q["q1"], q["q3"])
    return "%-14s %-6s %30s %30s %4d/%-3d %-5s %+7.1f%% <= %2.0f%% %s" % (
        s["name"], s["better"], side(s["base"]), side(s["change"]),
        s["wins"], s["pairs"], "holds" if s["claim_holds"] else "no",
        100 * s["worsening_bound"], 100 * s["allowed"],
        "holds" if s["no_worse"] else "worse"
        if s["median_worsening"] > s["allowed"] else "unresolved")


def self_test(metrics):
    """Both verdicts on synthetic pairs: a uniform 30 % regression is not
    "no worse", +-5 % jitter and a uniform gain are, and a gain also holds
    the claim rule. Returns the failures."""
    pairs = 10
    cases = [("uniform 30% regression", [0.3] * pairs, False),
             ("+-5% jitter", [0.05, -0.05] * (pairs // 2), True),
             ("uniform 20% gain", [-0.2] * pairs, True),
             # With 10 pairs the bound is the second-largest worsening.
             ("one 40% outlier", [0.4] + [0.0] * (pairs - 1), True),
             ("two 40% outliers", [0.4] * 2 + [0.0] * (pairs - 2), False)]
    failures = []
    for metric in metrics:
        if metric["bound"] >= 0.3:
            continue  # a 30 % regression would be inside its bound
        lower = metric["better"] == "lower"
        base = [100.0 + i for i in range(pairs)]
        for label, worse, expected in cases:
            change = [b * (1 + w if lower else 1 - w)
                      for b, w in zip(base, worse)]
            s = summarize(metric, {metric["name"]: base},
                          {metric["name"]: change})
            if s["no_worse"] != expected:
                failures.append("%s, %s: no_worse is %s" % (
                    metric["name"], label, s["no_worse"]))
            if label.endswith("gain") and not s["claim_holds"]:
                failures.append("%s, %s: the claim rule does not hold" % (
                    metric["name"], label))
    return failures


def commit_of(tree):
    """The commit `tree` sits on, and whether it has uncommitted edits."""
    head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    status = subprocess.run(["git", "-C", tree, "status", "--porcelain"],
                            capture_output=True, text=True)
    return {"commit": head.stdout.strip() if head.returncode == 0
            else "unknown", "uncommitted_edits": bool(status.stdout.strip())}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision to compare")
    p.add_argument("--pairs", type=int)
    p.add_argument("--workload")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--json", metavar="PATH",
                   help="also write the summary to PATH as JSON")
    p.add_argument("--self-test", action="store_true",
                   help="check the verdicts on synthetic pairs and exit")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    if args.self_test:
        failures = self_test(metrics)
        for f in failures:
            print("FAIL: " + f)
        print("self-test: %d failure(s)" % len(failures))
        return 1 if failures else 0
    if args.base is None or args.pairs is None or args.workload is None:
        p.error("--base, --pairs and --workload are required")
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")

    tmp = tempfile.mkdtemp(prefix="perf_pairs-")
    base_tree = os.path.join(tmp, "base")
    try:
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", ROOT,
                        base_tree], check=True)
        subprocess.run(["git", "-C", base_tree, "checkout", "--quiet",
                        "--detach", args.base], check=True)
        sides = {"base": base_tree, "change": ROOT}
        commits = {side: commit_of(tree) for side, tree in sides.items()}
        runs = {"base": {}, "change": {}}
        host = {}
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                got, note = run_side(sides[side], args.workload, seed,
                                     args.seconds)
                host.setdefault(side, note)
                for name, value in got.items():
                    runs[side].setdefault(name, []).append(value)
            print("pair %d (seed %d, %s first): %s" % (
                i, seed, order[0], "  ".join(
                    "%s %.4g/%.4g" % (m["name"], runs["base"][m["name"]][-1],
                                      runs["change"][m["name"]][-1])
                    for m in metrics)), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("workload %s, %d pairs, %d s, seeds %d-%d, base %s" % (
        args.workload, args.pairs, args.seconds, SEED_BASE,
        SEED_BASE + args.pairs - 1, args.base))
    print("%-14s %-6s %30s %30s %8s %-5s %s" % (
        "metric", "better", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "claim", "no worse: median worsening bound"))
    summary = [summarize(m, runs["base"], runs["change"]) for m in metrics]
    for s in summary:
        print(row(s))
    if args.json:
        doc = {"workload": args.workload, "pairs": args.pairs,
               "seconds": args.seconds, "confidence": CONFIDENCE,
               "seeds": [SEED_BASE, SEED_BASE + args.pairs - 1],
               "base": dict(commits["base"], rev=args.base,
                            host=host["base"]),
               "change": dict(commits["change"], host=host["change"]),
               "metrics": summary}
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
