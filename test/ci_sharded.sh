#!/usr/bin/env bash
# `make ci-sharded` gate: the whole built-in corpus must be bit-identical
# between --engine fast and --engine sharded at 3 and 4 shards, with
# tracing on and off, and between fast and --engine reference.  Fast
# runs the same kernels as one chunk per VP set, so a shard count of 1
# would check nothing; 3 shards split most corpus VP sets into uneven
# chunks.  Fast and sharded share every kernel, so a bug in one passes
# their diff; the reference engine shares none, and its leg names it.
# Rows are compared minus the job digest and engine label (different by
# design: the engine is part of the job identity) and minus
# wall-clock/cache provenance; everything else — status, output,
# simulated seconds, the full deterministic metrics object, seeds —
# must agree byte for byte.  Run from the repository root (the Makefile
# does).
set -euo pipefail
trap 'echo "ci_sharded.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=${UCC:-_build/default/bin/ucc.exe}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ucc_ci_sharded.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# deterministic identity: drop wall time, cache provenance, and the
# fields that name the engine (digest covers engine, so it differs too;
# engine_effective records which engine actually ran)
norm() {
  sed -e 's/,"wall_seconds":[^,]*,"cache":"[a-z]*"}/}/' \
      -e 's/"digest":"[^"]*",//' \
      -e 's/"engine":"[^"]*",//' \
      -e 's/"engine_effective":"[^"]*",//' "$1" | grep '"job":'
}

$UCC batch --cache-dir none --engine fast \
  --report "$WORK/fast.jsonl" 2>/dev/null
$UCC batch --cache-dir none --engine fast --trace="$WORK/fast_trace.jsonl" \
  --report "$WORK/fast_traced.jsonl" 2>/dev/null
diff <(norm "$WORK/fast.jsonl") <(norm "$WORK/fast_traced.jsonl")

$UCC batch --cache-dir none --engine reference \
  --report "$WORK/reference.jsonl" 2>/dev/null
diff <(norm "$WORK/fast.jsonl") <(norm "$WORK/reference.jsonl")

for s in 3 4; do
  $UCC batch --cache-dir none --engine sharded --shards "$s" \
    --report "$WORK/sharded$s.jsonl" 2>/dev/null
  diff <(norm "$WORK/fast.jsonl") <(norm "$WORK/sharded$s.jsonl")

  $UCC batch --cache-dir none --engine sharded --shards "$s" \
    --trace="$WORK/trace$s.jsonl" \
    --report "$WORK/sharded${s}_traced.jsonl" 2>/dev/null
  diff <(norm "$WORK/fast.jsonl") <(norm "$WORK/sharded${s}_traced.jsonl")
done

echo "ci-sharded: corpus bit-identical fast vs reference, and vs sharded at 3 and 4 shards traced and untraced"
