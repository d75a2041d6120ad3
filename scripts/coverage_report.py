#!/usr/bin/env python3
"""List the src/ functions and lines a coverage run never reached.

    cmake --preset coverage && cmake --build --preset coverage -j3
    build-coverage/tests/whisper_tests          # or any ctest selection
    python3 scripts/coverage_report.py build-coverage [--file SUBSTR]

Runs `gcov --json-format --stdout` over every .gcda file under the build
directory, sums the counts of each source line and function across the
translation units that compiled it (a header counts once), and prints, per
file under src/, the functions that never ran and the executable lines
that were never covered, as line ranges. --file keeps only paths that
contain SUBSTR. A tool, not a gate: it always exits 0 once gcov has run,
whatever the coverage.
"""
import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src") + os.sep


def gcov_documents(build_dir):
    """Yield gcov's JSON document for every .gcda file under build_dir."""
    gcdas = []
    for dirpath, _, files in os.walk(build_dir):
        gcdas += [os.path.join(dirpath, f) for f in files
                  if f.endswith(".gcda")]
    if not gcdas:
        sys.exit("no .gcda files under %s: build with the coverage preset "
                 "and run a test binary first" % build_dir)
    decoder = json.JSONDecoder()
    for gcda in sorted(gcdas):
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout", "--object-directory",
             os.path.dirname(gcda), gcda],
            cwd=build_dir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        text, at = proc.stdout, 0
        while True:
            while at < len(text) and text[at].isspace():
                at += 1
            if at == len(text):
                break
            doc, at = decoder.raw_decode(text, at)
            yield doc


def collect(build_dir):
    """{src-relative path: (line counts, function counts)} summed over TUs."""
    lines = defaultdict(lambda: defaultdict(int))
    functions = defaultdict(lambda: defaultdict(int))
    for doc in gcov_documents(build_dir):
        for f in doc.get("files", []):
            path = os.path.normpath(os.path.join(build_dir, f["file"]))
            if not path.startswith(SRC):
                continue
            rel = os.path.relpath(path, ROOT)
            for ln in f.get("lines", []):
                lines[rel][ln["line_number"]] += ln["count"]
            for fn in f.get("functions", []):
                key = (fn["start_line"], fn.get("demangled_name", fn["name"]))
                functions[rel][key] += fn["execution_count"]
    return lines, functions


def ranges(numbers):
    """[3, 4, 5, 9] -> '3-5, 9'."""
    out, start, prev = [], None, None
    for n in sorted(numbers):
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else "%d-%d" % (start, prev))
        start = prev = n
    if start is not None:
        out.append(str(start) if start == prev else "%d-%d" % (start, prev))
    return ", ".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dir", help="coverage build directory")
    ap.add_argument("--file", default="",
                    help="only report src/ paths containing this substring")
    args = ap.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    lines, functions = collect(build_dir)
    total_lines = covered_lines = total_fns = ran_fns = 0
    for rel in sorted(lines):
        counts, fns = lines[rel], functions[rel]
        total_lines += len(counts)
        covered_lines += sum(1 for c in counts.values() if c > 0)
        total_fns += len(fns)
        ran_fns += sum(1 for c in fns.values() if c > 0)
        if args.file not in rel:
            continue
        missed = [n for n, c in counts.items() if c == 0]
        never = sorted(k for k, c in fns.items() if c == 0)
        if not missed and not never:
            continue
        print("%s: %d of %d lines uncovered, %d of %d functions never ran"
              % (rel, len(missed), len(counts), len(never), len(fns)))
        for start_line, name in never:
            print("  never ran: %s (line %d)" % (name, start_line))
        if missed:
            print("  uncovered lines: %s" % ranges(missed))
    print("src/ total: %d of %d lines covered (%.1f %%), %d of %d functions "
          "ran" % (covered_lines, total_lines,
                   100.0 * covered_lines / max(total_lines, 1), ran_fns,
                   total_fns))


if __name__ == "__main__":
    main()
