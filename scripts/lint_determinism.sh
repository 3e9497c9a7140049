#!/usr/bin/env bash
# lint_determinism.sh — grep-based determinism lint for the workspace.
#
# The deciders promise bit-identical verdicts, witnesses, and counters across
# runs and engines. Two classes of std API quietly break that promise:
#
#   hash   std::collections::HashMap/HashSet — iteration order is randomized
#          per process, so any iteration feeding a verdict-affecting or
#          serialized path (witness choice, counter attribution, artifact
#          output) diverges between runs. The workspace convention is
#          BTreeMap/BTreeSet; hash containers are allowed only for pure
#          point-lookup structures that are never iterated into an ordered
#          output (see the allowlist).
#
#   clock  Instant::now/SystemTime::now — wall-clock reads outside the
#          sanctioned timebases (the budget deadline in core/guard.rs, the
#          span timebase in telemetry/probe.rs) let timing leak into decision
#          state. The bench crate is exempt wholesale: measuring wall-clock
#          is its purpose, and it never feeds a verdict.
#
# Findings are suppressed per file through scripts/lint_determinism_allow.txt
# (format: "<rule> <path> — <justification>"). Add a line there only with a
# reason the next reader can audit.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST=scripts/lint_determinism_allow.txt
status=0

allowed() { # allowed <rule> <file>
  grep -Eq "^$1 $2( |$)" "$ALLOWLIST"
}

report() { # report <rule> <lines…>
  local rule="$1"
  shift
  local hits="$*"
  [ -z "$hits" ] && return 0
  while IFS= read -r line; do
    [ -z "$line" ] && continue
    local file="${line%%:*}"
    if ! allowed "$rule" "$file"; then
      echo "determinism lint [$rule]: $line"
      echo "  (fix it, or allowlist '$rule $file — <reason>' in $ALLOWLIST)"
      status=1
    fi
  done <<<"$hits"
}

# Rule `hash`: std hash containers in library crates.
hash_hits=$(grep -rn --include='*.rs' -E 'std::collections::(HashMap|HashSet)' crates/*/src || true)
report hash "$hash_hits"

# Rule `clock`: wall-clock reads outside the bench crate.
clock_hits=$(grep -rn --include='*.rs' -E '(Instant|SystemTime)::now' crates/*/src \
  | grep -v '^crates/bench/' || true)
report clock "$clock_hits"

if [ "$status" -eq 0 ]; then
  echo "determinism lint: ok"
fi
exit "$status"
