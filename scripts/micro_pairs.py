#!/usr/bin/env python3
"""Compare two built micro_probes binaries, alternating them pair by pair.

    python3 scripts/micro_pairs.py BASE_BIN CHANGE_BIN FILTER \
        [--pairs N] [--min-time S]

Runs each binary once per pair with `--benchmark_filter=FILTER
--benchmark_min_time=S --benchmark_format=json`, alternating which side
runs first. A benchmark's time in one run is google-benchmark's cpu_time
per iteration (real_time for benchmarks registered with UseRealTime, whose
names end in /real_time). Pairing cancels the host's slow drift: each
pair's change/base ratio compares two runs taken back to back.

For every benchmark the filter selects, prints each side's median time,
the median and quartiles of the per-pair change/base ratios (below 1 means
the change is faster), the pairs the change won (ties count for neither
side), and whether the user counters (fast-forward attempts, spans, cycle
counts, ...) were identical on both sides in every pair. Exits non-zero
when a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys

# Keys of a google-benchmark JSON entry that are not user counters.
NOT_COUNTERS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "label", "error_occurred",
    "error_message", "aggregate_name", "aggregate_unit"}


def run_side(binary, pattern, min_time):
    """One run of `binary`: {benchmark name: (time, {counter: value})}."""
    cmd = [binary, "--benchmark_filter=" + pattern,
           "--benchmark_min_time=%g" % min_time, "--benchmark_format=json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    out = {}
    for b in json.loads(proc.stdout)["benchmarks"]:
        if b.get("error_occurred"):
            raise RuntimeError("%s: %s" % (b["name"], b.get("error_message")))
        time = b["real_time" if b["name"].endswith("/real_time")
                 else "cpu_time"]
        counters = {k: v for k, v in b.items()
                    if k not in NOT_COUNTERS and isinstance(v, (int, float))}
        out[b["name"]] = (time, counters)
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(name, base, change):
    """One benchmark's verdict from its per-pair (time, counters) runs."""
    ratios = [c[0] / b[0] for b, c in zip(base, change)]
    r1, rmed, r3 = quartiles(ratios)
    return {"name": name,
            "base_median": statistics.median(t for t, _ in base),
            "change_median": statistics.median(t for t, _ in change),
            "ratio": {"median": rmed, "q1": r1, "q3": r3},
            "wins": sum(1 for r in ratios if r < 1), "pairs": len(ratios),
            "counters_identical": all(b[1] == c[1]
                                      for b, c in zip(base, change))}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_bin")
    p.add_argument("change_bin")
    p.add_argument("filter", help="--benchmark_filter regex")
    p.add_argument("--pairs", type=int, default=12)
    p.add_argument("--min-time", type=float, default=0.3,
                   help="--benchmark_min_time per benchmark, seconds")
    args = p.parse_args()
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")

    sides = {"base": args.base_bin, "change": args.change_bin}
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_side(sides[side], args.filter,
                                       args.min_time))
        if runs["base"][-1].keys() != runs["change"][-1].keys():
            raise RuntimeError("the two binaries ran different benchmarks")
        print("pair %d (%s first)" % (i, order[0]), file=sys.stderr)

    names = list(runs["base"][0])
    if not names:
        raise RuntimeError("the filter selected no benchmark")
    summary = [summarize(n, [r[n] for r in runs["base"]],
                         [r[n] for r in runs["change"]]) for n in names]
    print("%d pairs, --benchmark_min_time=%g, filter %s" % (
        args.pairs, args.min_time, args.filter))
    print("%-36s %10s %10s %24s %6s %s" % (
        "benchmark", "base", "change", "change/base [q1, q3]", "wins",
        "counters"))
    for s in summary:
        r = s["ratio"]
        print("%-36s %10.4g %10.4g %24s %2d/%-3d %s" % (
            s["name"], s["base_median"], s["change_median"],
            "%.3f [%.3f, %.3f]" % (r["median"], r["q1"], r["q3"]),
            s["wins"], s["pairs"],
            "identical" if s["counters_identical"] else "DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
