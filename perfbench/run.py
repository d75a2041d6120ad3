#!/usr/bin/env python3
"""Run one workload of the whisper benchmark.

    python3 perfbench/run.py --workload sweep|matrix|serve|dist \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (the simulator libraries from src/ plus whisper_perfbench) into
.bench_build/, or into $CARGO_TARGET_DIR when that is set; later runs only
rebuild what changed. The program's stdout is passed through: note lines,
then one JSON result line. With --trace 0, two more processes run only the
workload's set-up, and setup_s is the median of the three cold set-ups.
The exit status is non-zero when the build fails, an output check fails, a
trial or request fails, or the result does not carry exactly the metrics
BENCHMARK.json declares. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "matrix", "serve", "dist")
MAX_SECONDS = 60
EXTRA_SETUPS = 2


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def source_digest():
    """sha256 over every file under src/, by relative path and content."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "whisper_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, with the declared units."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last output line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result line has the wrong keys"
    if result["correct"] is not True or result["failed"] != 0:
        return "the run reports failed checks or failed trials"
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return None
    with open(spec_path) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)))
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        return fail("--seed must be >= 0 and --seconds in [1, %d]" %
                    MAX_SECONDS)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no simulator sources (src/) beside perfbench/; run "
                    "from the root of a whisper source tree")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return fail("build failed")

    # The timed phase takes --seconds (twice that, at most, when traced);
    # the rest covers set-ups, checks and the operation that straddles the
    # end of the phase.
    deadline = time.monotonic() + 2 * args.seconds + 110
    binary = os.path.join(build_dir, "whisper_perfbench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    cmd = [binary] + common + [
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--commit", git_commit(), "--source-digest", source_digest()]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, "trace-%s.json" % args.workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return fail("the benchmark did not finish in time")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return proc.returncode
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        return fail(problem)
    if args.trace == "1":
        sys.stdout.write(proc.stdout)
        return 0

    # setup_s: the median of this run's set-up and EXTRA_SETUPS more, each
    # in a fresh process and timed from its start, so every one is cold.
    result = json.loads(lines[-1])
    setups = [result["metrics"]["setup_s"]["value"]]
    for _ in range(EXTRA_SETUPS):
        try:
            extra = subprocess.run(
                [binary] + common + ["--setup-only", "1"],
                stdout=subprocess.PIPE, text=True,
                timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return fail("a set-up did not finish in time")
        if extra.returncode != 0:
            return fail("a set-up failed")
        extra_result = json.loads(extra.stdout.rstrip("\n").split("\n")[-1])
        setups.append(extra_result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    lines[-1] = json.dumps(result)
    lines.insert(-1, "setup_s: median of %d cold set-ups: %s s" % (
        len(setups), ", ".join("%.4f" % v for v in setups)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
