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
#   4-7. Every flag a binary accepts must be documented in the guide: the
#      rows of the generated `--help` table (src/stats/flags.h) of each
#      built bench/ and examples/ binary whose source builds one
#      (`whisper_cli --help` prints every command's). And the reverse:
#      every --flag on a `whisper_cli` command line in README.md,
#      docs/REPRODUCING.md and the skill notes (.*/skills/*/SKILL.md) must
#      be one `whisper_cli --help` lists, so a retired flag cannot survive
#      in an example. These checks need the build dir.
#   8. docs/PERFORMANCE.md must exist and document every measurement-cell
#      and speedup key bench/perf_baseline.cpp writes into BENCH_perf.json
#      (fresh_jobs1, reset_jobs1, ff_jobs1, reset_jobsN, speedup,
#      ff_speedup, ...) — the column glossary may not drift from the
#      harness's actual output keys.
#   9. The whisper_serve daemon's surface must be documented: every
#      protocol verb in src/serve/protocol.h's kVerbs array must appear in
#      docs/REPRODUCING.md (the whisper_serve and serve_soak flags are
#      checks 4-7's).
#  10. The defense registry (src/defense/defense.cpp) and the docs must
#      agree: every registered defense name must be documented in both
#      docs/REPRODUCING.md and docs/ARCHITECTURE.md (the defense_matrix
#      flags are checks 4-7's). The generated docs/DEFENSE_MATRIX.md must
#      exist and mention every registered defense (a registry addition
#      forces a report refresh).
#  11. Same for the attack registry (src/core/attacks/registry.cpp):
#      every registered attack name must be documented (backticked) in
#      docs/REPRODUCING.md, docs/ARCHITECTURE.md and README.md, and must
#      appear in the generated docs/DEFENSE_MATRIX.md — registering a new
#      attack without docs or a matrix refresh fails this check.
#  12. The distributed sweep surface must be documented: the dist_soak
#      flags (checks 4-7), the `whisper_cli sweep` subcommand and
#      its `--endpoints` pool grammar, the BENCH_dist.json trajectory, and
#      invariant 13 (distribution is invisible) in docs/ARCHITECTURE.md.
#
# Usage: check_docs.sh <repo-root> <build-dir>
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

# Every row of each binary's generated --help table (a line that starts
# with "  --") must appear, backticked, in the guide. The binaries are the
# bench/ and examples/ sources that build a stats::Flags table.
nflags=0
for src in $(grep -l 'stats::Flags' "$root"/bench/*.cpp \
                                    "$root"/examples/*.cpp); do
  dir=$(basename "$(dirname "$src")")
  name=$(basename "$src" .cpp)
  bin_flags=$("$build/$dir/$name" --help 2>/dev/null |
              awk '/^  --/ {print $1}' | sort -u)
  if [[ -z "$bin_flags" ]]; then
    echo "FAIL: $dir/$name builds a flag table but $build/$dir/$name" \
         "--help lists no flags (checks 4-7 need the built binaries)"
    fail=1
  fi
  [[ "$name" == whisper_cli ]] && cli_flags=$bin_flags
  for flag in $bin_flags; do
    nflags=$((nflags + 1))
    if ! grep -qE -- "\`$flag([^a-z-]|\$)" "$guide"; then
      echo "FAIL: $dir/$name accepts $flag but docs/REPRODUCING.md" \
           "does not document it"
      fail=1
    fi
  done
done

# The reverse: every flag on a documented whisper_cli command line must be
# one the CLI accepts. A command line runs from "whisper_cli" to the end of
# its code span, its "#" comment or its line, with backslash continuations
# joined first.
for doc in "$root/README.md" "$guide" "$root"/.[!.]*/skills/*/SKILL.md; do
  [[ -f "$doc" && -n "${cli_flags:-}" ]] || continue
  used=$(sed -e ':a' -e '/\\$/{N;s/\\\n//;ba' -e '}' "$doc" |
         grep -oE 'whisper_cli [a-z][^`#]*' |
         grep -oE '(^|[[:space:]])--[a-z][a-z-]*' |
         sed 's/^[[:space:]]*//' | sort -u)
  for flag in $used; do
    if ! grep -qx -- "$flag" <<<"$cli_flags"; then
      echo "FAIL: ${doc#"$root"/} runs whisper_cli with $flag, which" \
           "whisper_cli --help does not list"
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

# Every registered name must appear in each of the docs that exists,
# backticked (bare in the generated matrix report, where it is a cell).
require_names() {
  local kind=$1 names=$2 name doc want
  shift 2
  for name in $names; do
    for doc in "$@"; do
      want="\`$name\`"
      [[ "$doc" == "$matrix_doc" ]] && want=$name
      if [[ -f "$doc" ]] && ! grep -q -- "$want" "$doc"; then
        echo "FAIL: $kind '$name' is registered but ${doc#"$root"/}" \
             "does not mention it"
        fail=1
      fi
    done
  done
}
require_names defense "$defenses" "$guide" "$arch_doc" "$matrix_doc"
require_names attack "$attacks" "$guide" "$arch_doc" "$readme" "$matrix_doc"

# The distributed sweep surface: the sweep subcommand and its endpoint
# grammar, the trajectory name, and the invariant it all hangs off.
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
       "$nflags binary flags, $(echo "$perf_cols" | wc -w) perf columns," \
       "$(echo "$verbs" | wc -w) serve verbs," \
       "$(echo "$defenses" | wc -w) defenses," \
       "$(echo "$attacks" | wc -w) attacks, all in sync"
fi
exit $fail
