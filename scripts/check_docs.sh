#!/usr/bin/env bash
# Tier-2 docs check: docs/REPRODUCING.md and bench/ must stay in sync.
#
#   1. Every `bench/<name>` the guide references must exist as a harness
#      source (bench/<name>.cpp) — no documenting binaries that were
#      renamed or removed.
#   2. Every harness in bench/ must be documented in the guide — adding a
#      figure/table reproduction without telling people how to run it
#      fails this check.
#   3. When a build directory is given and contains the bench binaries,
#      each documented binary must have been built.
#   4. Every runner flag the shared harness parser (bench/bench_util.h)
#      accepts must be documented in the guide's flag table — adding a
#      flag without documenting it fails this check.
#   5. Same for the extra flags bench/noise_sweep.cpp parses on top of the
#      shared set (--noise-profile, --attacks, ...).
#   6. Same for the extra flags bench/perf_baseline.cpp parses
#      (--attacks, --trials, ...).
#   7. Same for every flag examples/whisper_cli.cpp parses (--fault-plan,
#      --retries, ...) — the CLI is the guide's primary entry point. And
#      the reverse: every --flag on a `whisper_cli` command line in
#      README.md, docs/REPRODUCING.md and the skill notes
#      (.*/skills/*/SKILL.md) must be one whisper_cli.cpp parses, so a retired flag cannot
#      survive in an example.
#   8. docs/PERFORMANCE.md must exist and document every measurement-cell
#      and speedup key bench/perf_baseline.cpp writes into BENCH_perf.json
#      (fresh_jobs1, reset_jobs1, ff_jobs1, reset_jobsN, speedup,
#      ff_speedup, ...) — the column glossary may not drift from the
#      harness's actual output keys.
#   9. The whisper_serve daemon's surface must be documented: every
#      protocol verb in src/serve/protocol.h's kVerbs array, every flag
#      examples/whisper_serve.cpp parses, and every flag
#      bench/serve_soak.cpp parses must appear in docs/REPRODUCING.md.
#  10. The defense registry (src/defense/defense.cpp) and the docs must
#      agree: every registered defense name must be documented in both
#      docs/REPRODUCING.md and docs/ARCHITECTURE.md, and every flag
#      bench/defense_matrix.cpp parses must appear in the guide. The
#      generated docs/DEFENSE_MATRIX.md must exist and mention every
#      registered defense (a registry addition forces a report refresh).
#  11. Same for the attack registry (src/core/attacks/registry.cpp):
#      every registered attack name must be documented (backticked) in
#      docs/REPRODUCING.md, docs/ARCHITECTURE.md and README.md, and must
#      appear in the generated docs/DEFENSE_MATRIX.md — registering a new
#      attack without docs or a matrix refresh fails this check.
#  12. The distributed sweep surface must be documented: every flag
#      bench/dist_soak.cpp parses, the `whisper_cli sweep` subcommand and
#      its `--endpoints` pool grammar, the BENCH_dist.json trajectory, and
#      invariant 13 (distribution is invisible) in docs/ARCHITECTURE.md.
#
# Usage: check_docs.sh <repo-root> [build-dir]
# Wired into ctest as `docs_reproducing_sync` (LABELS tier2).
set -u

root="${1:-.}"
build="${2:-}"
guide="$root/docs/REPRODUCING.md"
perf_doc="$root/docs/PERFORMANCE.md"
fail=0

if [[ ! -f "$guide" ]]; then
  echo "FAIL: $guide does not exist"
  exit 1
fi

if [[ ! -f "$perf_doc" ]]; then
  echo "FAIL: $perf_doc does not exist"
  exit 1
fi

# Names referenced as bench/<name> in the guide (strip code-fence noise).
documented=$(grep -oE 'bench/[a-z0-9_]+' "$guide" | sed 's|bench/||' |
             sort -u)

# Harness sources in bench/ (bench_util.h is the shared header, not a
# binary).
harnesses=$(ls "$root"/bench/*.cpp | xargs -n1 basename | sed 's|\.cpp$||' |
            sort -u)

for name in $documented; do
  if [[ ! -f "$root/bench/$name.cpp" ]]; then
    echo "FAIL: docs/REPRODUCING.md references bench/$name but" \
         "bench/$name.cpp does not exist"
    fail=1
  fi
done

for name in $harnesses; do
  if ! grep -q "bench/$name" "$guide"; then
    echo "FAIL: bench/$name.cpp is not documented in docs/REPRODUCING.md"
    fail=1
  fi
done

# Flags the shared harness parser accepts (string literals "--..." in
# bench_util.h) must each appear in the guide.
flags=$(grep -oE '"--[a-z-]+"' "$root/bench/bench_util.h" | tr -d '"' |
        sort -u)
for flag in $flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/bench_util.h parses $flag but docs/REPRODUCING.md" \
         "does not document it"
    fail=1
  fi
done

# The noise-sweep harness has its own parser on top of the shared one; its
# flags must be documented the same way.
sweep_flags=$(grep -oE '"--[a-z-]+"' "$root/bench/noise_sweep.cpp" |
              tr -d '"' | sort -u)
for flag in $sweep_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/noise_sweep.cpp parses $flag but docs/REPRODUCING.md" \
         "does not document it"
    fail=1
  fi
done

# perf_baseline likewise parses extra flags of its own.
perf_flags=$(grep -oE '"--[a-z-]+"' "$root/bench/perf_baseline.cpp" |
             tr -d '"' | sort -u)
for flag in $perf_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/perf_baseline.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

# whisper_cli's flag set (shared harness flags plus the fault-tolerance
# knobs) must be documented too.
cli_flags=$(grep -oE '"--[a-z-]+"' "$root/examples/whisper_cli.cpp" |
            tr -d '"' | sort -u)
for flag in $cli_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: examples/whisper_cli.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

# The reverse: every flag on a documented whisper_cli command line must be
# one the CLI parses. A command line runs from "whisper_cli" to the end of
# its code span, its "#" comment or its line, with backslash continuations
# joined first.
for doc in "$root/README.md" "$guide" "$root"/.[!.]*/skills/*/SKILL.md; do
  [[ -f "$doc" ]] || continue
  used=$(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$doc" |
         grep -oE 'whisper_cli [a-z][^`#]*' |
         grep -oE '(^|[[:space:]])--[a-z][a-z-]*' |
         sed 's/^[[:space:]]*//' | sort -u)
  for flag in $used; do
    if ! grep -qx -- "$flag" <<<"$cli_flags"; then
      echo "FAIL: ${doc#"$root"/} runs whisper_cli with $flag, which" \
           "examples/whisper_cli.cpp does not parse"
      fail=1
    fi
  done
done

# The BENCH_perf.json column glossary in docs/PERFORMANCE.md must cover
# every measurement-cell / speedup key perf_baseline.cpp actually emits
# (the keys containing "_jobs" or "speedup" — the per-cell scalars inside
# each cell, wall_seconds etc., ride along with them).
perf_cols=$(grep -oE 'w\.key\("[A-Za-z_0-9]+"\)' \
            "$root/bench/perf_baseline.cpp" |
            sed 's/.*"\([^"]*\)".*/\1/' | grep -E '_jobs|speedup' |
            sort -u)
for col in $perf_cols; do
  if ! grep -q -- "\`$col\`" "$perf_doc"; then
    echo "FAIL: bench/perf_baseline.cpp writes BENCH_perf.json key" \
         "'$col' but docs/PERFORMANCE.md does not document it"
    fail=1
  fi
done

# The serve daemon's wire surface: every verb in the kVerbs array
# (src/serve/protocol.h) and every flag of the daemon binary and the soak
# harness must be documented in the guide.
verbs=$(sed -n '/kVerbs\[\]/,/};/p' "$root/src/serve/protocol.h" |
        grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
if [[ -z "$verbs" ]]; then
  echo "FAIL: could not extract kVerbs from src/serve/protocol.h"
  fail=1
fi
for verb in $verbs; do
  if ! grep -q -- "\`$verb\`" "$guide"; then
    echo "FAIL: src/serve/protocol.h lists verb '$verb' but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

serve_flags=$(grep -oE '"--[a-z-]+"' "$root/examples/whisper_serve.cpp" |
              tr -d '"' | sort -u)
for flag in $serve_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: examples/whisper_serve.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

soak_flags=$(grep -oE '"--[a-z-]+"' "$root/bench/serve_soak.cpp" |
             tr -d '"' | sort -u)
for flag in $soak_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/serve_soak.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

# The defense registry is the systematization's name authority: every name
# in src/defense/defense.cpp's kRegistry table must be documented (backticked)
# in both the guide and the architecture doc, and must appear in the
# generated matrix report.
arch_doc="$root/docs/ARCHITECTURE.md"
matrix_doc="$root/docs/DEFENSE_MATRIX.md"
if [[ ! -f "$arch_doc" ]]; then
  echo "FAIL: $arch_doc does not exist"
  fail=1
fi
if [[ ! -f "$matrix_doc" ]]; then
  echo "FAIL: $matrix_doc does not exist (generate with bench/defense_matrix" \
       "--report)"
  fail=1
fi
defenses=$(sed -n '/kRegistry = {/,/^  };/p' "$root/src/defense/defense.cpp" |
           grep -oE '^      \{"[a-z0-9_-]+"' | grep -oE '[a-z0-9_-]+' |
           sort -u)
if [[ -z "$defenses" ]]; then
  echo "FAIL: could not extract the defense registry from" \
       "src/defense/defense.cpp"
  fail=1
fi
for name in $defenses; do
  if ! grep -q -- "\`$name\`" "$guide"; then
    echo "FAIL: defense '$name' is registered but docs/REPRODUCING.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$arch_doc" ]] && ! grep -q -- "\`$name\`" "$arch_doc"; then
    echo "FAIL: defense '$name' is registered but docs/ARCHITECTURE.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$matrix_doc" ]] && ! grep -q -- "$name" "$matrix_doc"; then
    echo "FAIL: defense '$name' is registered but docs/DEFENSE_MATRIX.md" \
         "does not cover it — regenerate the report"
    fail=1
  fi
done

# The attack registry is the name authority on the other axis of the
# systematization matrix: every name in src/core/attacks/registry.cpp's
# table must be documented (backticked) in the guide, the architecture doc
# and the README, and must appear in the generated matrix report.
readme="$root/README.md"
attacks=$(sed -n '/std::vector<AttackInfo> registry = {/,/^  };/p' \
          "$root/src/core/attacks/registry.cpp" |
          grep -oE '^      \{"[a-z0-9_-]+"' | grep -oE '[a-z0-9_-]+' |
          sort -u)
if [[ -z "$attacks" ]]; then
  echo "FAIL: could not extract the attack registry from" \
       "src/core/attacks/registry.cpp"
  fail=1
fi
for name in $attacks; do
  if ! grep -q -- "\`$name\`" "$guide"; then
    echo "FAIL: attack '$name' is registered but docs/REPRODUCING.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$arch_doc" ]] && ! grep -q -- "\`$name\`" "$arch_doc"; then
    echo "FAIL: attack '$name' is registered but docs/ARCHITECTURE.md does" \
         "not document it"
    fail=1
  fi
  if [[ -f "$readme" ]] && ! grep -q -- "\`$name\`" "$readme"; then
    echo "FAIL: attack '$name' is registered but README.md does not list it"
    fail=1
  fi
  if [[ -f "$matrix_doc" ]] && ! grep -q -- "$name" "$matrix_doc"; then
    echo "FAIL: attack '$name' is registered but docs/DEFENSE_MATRIX.md" \
         "does not cover it — regenerate the report"
    fail=1
  fi
done

matrix_flags=$(grep -oE '"--[a-z-]+"' "$root/bench/defense_matrix.cpp" |
               tr -d '"' | sort -u)
for flag in $matrix_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/defense_matrix.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done

# The distributed sweep surface: the soak harness's flags, the sweep
# subcommand and its endpoint grammar, the trajectory name, and the
# invariant it all hangs off.
dist_flags=$(grep -oE '"--[a-z-]+"' "$root/bench/dist_soak.cpp" |
             tr -d '"' | sort -u)
for flag in $dist_flags; do
  if ! grep -q -- "\`$flag" "$guide"; then
    echo "FAIL: bench/dist_soak.cpp parses $flag but" \
         "docs/REPRODUCING.md does not document it"
    fail=1
  fi
done
for needle in 'whisper_cli sweep' '--endpoints' 'BENCH_dist.json' \
              'trial_first'; do
  if ! grep -q -- "$needle" "$guide"; then
    echo "FAIL: docs/REPRODUCING.md does not mention '$needle'" \
         "(distributed sweep surface undocumented)"
    fail=1
  fi
done
if [[ -f "$arch_doc" ]] && ! grep -q "invariant 13" "$arch_doc"; then
  echo "FAIL: docs/ARCHITECTURE.md does not state invariant 13" \
       "(distribution is invisible)"
  fail=1
fi

if [[ -n "$build" && -d "$build/bench" ]]; then
  for name in $documented; do
    if [[ -f "$root/bench/$name.cpp" && ! -x "$build/bench/$name" ]]; then
      echo "FAIL: documented binary $build/bench/$name was not built"
      fail=1
    fi
  done
fi

if [[ $fail -eq 0 ]]; then
  echo "OK: $(echo "$documented" | wc -w) documented harnesses," \
       "$(echo "$harnesses" | wc -w) bench sources," \
       "$(echo "$flags" | wc -w)+$(echo "$sweep_flags" | wc -w)+$(echo \
       "$perf_flags" | wc -w)+$(echo "$cli_flags" | wc -w) harness+cli" \
       "flags, $(echo "$perf_cols" | wc -w) perf columns," \
       "$(echo "$verbs" | wc -w) serve verbs +" \
       "$(echo "$serve_flags" | wc -w)+$(echo "$soak_flags" | wc -w)+$(echo \
       "$dist_flags" | wc -w) serve+dist flags," \
       "$(echo "$defenses" | wc -w) defenses +" \
       "$(echo "$matrix_flags" | wc -w) matrix flags," \
       "$(echo "$attacks" | wc -w) attacks, all in sync"
fi
exit $fail
