#!/usr/bin/env bash
# `make ci-tune` gate for the layout auto-tuner.  Over the whole
# built-in corpus:
#   1. `ucc tune --json` must succeed on every program (the command
#      itself verifies the emitted map section re-parses to the chosen
#      table before printing anything) and must never predict a
#      regression: chosen cost <= default cost.
#   2. `ucc tune --apply` must rewrite each program into a source that
#      still compiles, and a second --apply must be a no-op
#      (idempotence: the synthesized section round-trips through the
#      parser and the layout stage).
#   3. A tuned batch sweep (`tune` manifest flag) must be observably
#      bit-identical to the untuned sweep: same status and same printed
#      output per job, with every tuned row stamped "tuned":true and
#      every untuned row left untouched.
# Run from the repository root (the Makefile does).
set -euo pipefail
trap 'echo "ci_tune.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=${UCC:-_build/default/bin/ucc.exe}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ucc_ci_tune.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

mapfile -t NAMES < <($UCC examples)
test "${#NAMES[@]}" -gt 0

# ---- 1 + 2: per-program tune, cost sanity, apply idempotence ----
for name in "${NAMES[@]}"; do
  src="$WORK/$name.uc"
  $UCC show "$name" >"$src"

  $UCC tune --json "$src" >"$WORK/$name.json"
  default_ns=$(sed -n 's/.*"default_ns":\([0-9.e+-]*\).*/\1/p' "$WORK/$name.json")
  chosen_ns=$(sed -n 's/.*"chosen_ns":\([0-9.e+-]*\).*/\1/p' "$WORK/$name.json")
  test -n "$default_ns" && test -n "$chosen_ns"
  awk -v c="$chosen_ns" -v d="$default_ns" \
    'BEGIN { exit !(c <= d + 1e-6) }' \
    || { echo "ci-tune: $name: chosen $chosen_ns > default $default_ns" >&2; exit 1; }

  $UCC tune --apply "$src" >/dev/null
  # the rewritten source must still compile and run
  $UCC run "$src" >/dev/null
  # and a second apply must change nothing
  $UCC tune --apply "$src" | grep -q 'already up to date' \
    || { echo "ci-tune: $name: --apply is not idempotent" >&2; exit 1; }
done

# ---- 3: tuned batch sweep, observably identical to untuned ----
for name in "${NAMES[@]}"; do
  echo "$name" >>"$WORK/m_plain"
  echo "$name tune" >>"$WORK/m_tuned"
done
$UCC batch "$WORK/m_plain" --cache-dir none --report "$WORK/plain.jsonl" 2>/dev/null
$UCC batch "$WORK/m_tuned" --cache-dir none --report "$WORK/tuned.jsonl" 2>/dev/null

# observable identity: job name, status and printed output; layouts may
# (and do) move the communication metrics, never the results
observable() {
  grep '"job":' "$1" \
    | sed -e 's/.*"job":"\([^"]*\)".*"status":"\([^"]*\)".*"output":\(\[[^]]*\]\).*/\1 \2 \3/'
}
diff <(observable "$WORK/plain.jsonl") <(observable "$WORK/tuned.jsonl")

# provenance: every tuned row stamped, no untuned row touched
n_jobs=$(grep -c '"job":' "$WORK/tuned.jsonl")
n_stamped=$(grep '"job":' "$WORK/tuned.jsonl" | grep -c '"tuned":true')
test "$n_jobs" -eq "$n_stamped"
grep '"job":' "$WORK/plain.jsonl" >"$WORK/plain_rows"
if grep -q '"tuned"' "$WORK/plain_rows"; then
  echo "ci-tune: an untuned row is stamped \"tuned\"" >&2
  exit 1
fi

echo "ci-tune: ${#NAMES[@]} programs tuned; sections round-trip, --apply idempotent, tuned sweep observably identical ($n_stamped/$n_jobs rows stamped)"
