#!/usr/bin/env bash
# `make ci-serve` gate: boot the daemon, push the whole corpus from two
# concurrent clients, require their rows bit-identical to `ucc batch`,
# push the corpus again under non-default job knobs (as `ucc submit`
# flags) and require those rows bit-identical to the same knobs given
# as `ucc batch` manifest columns, shed load through a typed
# `overloaded` rejection, and drain cleanly.
# Run from the repository root (the Makefile does).
set -euo pipefail
trap 'echo "ci_serve.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=${UCC:-_build/default/bin/ucc.exe}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ucc_ci_serve.XXXXXX")
SOCK="$WORK/ucd.sock"
SOCK2="$WORK/ucd2.sock"
SERVE_PID= ; SERVE2_PID=
cleanup() { kill $SERVE_PID $SERVE2_PID 2>/dev/null || true; rm -rf "$WORK"; }
trap cleanup EXIT

# deterministic identity: everything but wall time and cache provenance
strip() { sed 's/,"wall_seconds":[^,]*,"cache":"[a-z]*"}/}/' "$1" | grep '"job":'; }

wait_sock() {
  for _ in $(seq 1 200); do [ -S "$1" ] && return 0; sleep 0.05; done
  return 1
}

$UCC serve --socket "$SOCK" --cache-dir "$WORK/cache" --jobs 2 --max-queue 64 \
  2> "$WORK/serve.log" &
SERVE_PID=$!
wait_sock "$SOCK"

# two concurrent clients, distinct tenants, the whole corpus each; the
# second lands mostly warm, so this covers the cache path too
$UCC submit --socket "$SOCK" --corpus --wait --tenant alpha \
  > "$WORK/alpha.jsonl" 2>/dev/null &
ALPHA=$!
$UCC submit --socket "$SOCK" --corpus --wait --tenant beta \
  > "$WORK/beta.jsonl" 2>/dev/null &
BETA=$!
wait "$ALPHA"
wait "$BETA"

# both clients' rows must be bit-identical to a batch run's
$UCC batch --cache-dir none > "$WORK/batch.jsonl" 2>/dev/null
[ "$(strip "$WORK/batch.jsonl")" = "$(strip "$WORK/alpha.jsonl")" ]
[ "$(strip "$WORK/batch.jsonl")" = "$(strip "$WORK/beta.jsonl")" ]

# non-default knobs, spelled two ways: manifest columns for `ucc batch`
# and flags for `ucc submit`; both resolve through the one job-spec
# table, so the rows (digests included) must agree byte for byte
KNOBS=(
  "seed=7|--seed 7"
  "no-news no-cse|--no-news --no-cse"
  "ir-opt=constprop,dce|--ir-opt constprop,dce"
  "tune|--tune"
  "fuel=200000|--fuel 200000"
  "engine=sharded shards=3|--engine sharded --shards 3"
)
mapfile -t NAMES < <($UCC examples | awk '{print $1}')
: > "$WORK/knobs.manifest"
: > "$WORK/knobs_submit.jsonl"
for entry in "${KNOBS[@]}"; do
  columns=${entry%%|*}
  read -r -a flags <<< "${entry#*|}"
  for name in "${NAMES[@]}"; do
    echo "$name $columns" >> "$WORK/knobs.manifest"
  done
  $UCC submit --socket "$SOCK" --corpus --wait "${flags[@]}" \
    >> "$WORK/knobs_submit.jsonl" 2>/dev/null || [ "$?" = 2 ]
done
$UCC batch "$WORK/knobs.manifest" --cache-dir none \
  > "$WORK/knobs_batch.jsonl" 2>/dev/null || [ "$?" = 2 ]
[ "$(strip "$WORK/knobs_batch.jsonl" | wc -l)" = $(( ${#KNOBS[@]} * ${#NAMES[@]} )) ]
[ "$(strip "$WORK/knobs_batch.jsonl")" = "$(strip "$WORK/knobs_submit.jsonl")" ]

# SIGTERM drains and exits 0, removing the socket
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
grep -q "drained cleanly" "$WORK/serve.log"
[ ! -e "$SOCK" ]

# overload: a one-slot queue sheds pipelined corpus load with a typed
# rejection and a non-zero exit, and the daemon stays healthy after
$UCC serve --socket "$SOCK2" --cache-dir none --jobs 1 --max-queue 1 \
  2> "$WORK/serve2.log" &
SERVE2_PID=$!
wait_sock "$SOCK2"
if $UCC submit --socket "$SOCK2" --corpus --wait \
     > "$WORK/overload.jsonl" 2> "$WORK/overload.log"; then
  exit 1
else
  [ "$?" = 2 ]
fi
grep -q "rejected (overloaded)" "$WORK/overload.log"

# a client-requested drain finishes in-flight work and exits 0
$UCC submit --socket "$SOCK2" --drain 2> "$WORK/drain.log"
grep -q "server draining" "$WORK/drain.log"
wait "$SERVE2_PID"
SERVE2_PID=
grep -q "drained cleanly" "$WORK/serve2.log"

echo "serve gate: corpus identical over the wire (default and ${#KNOBS[@]} knob settings), overload shed, drains clean"
