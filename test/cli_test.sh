#!/usr/bin/env bash
# CLI smoke test: exercises every ucc subcommand on the example programs.
# Any non-zero step aborts the run and names the failing line.
set -euo pipefail
trap 'echo "cli_test.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=../bin/ucc.exe

out=$($UCC run ../examples/uc/quickstart.uc)
echo "$out" | grep -q "sum of squares 0..9 = 285"
echo "$out" | grep -q "simulated elapsed time"

# capture-then-grep (a bare `| grep -q` would SIGPIPE ucc under pipefail)
$UCC check ../examples/uc/shortest_path.uc > out.txt; grep -q "ok" out.txt
$UCC ast ../examples/uc/quickstart.uc > out.txt; grep -q 'par (I)' out.txt
$UCC paris ../examples/uc/quickstart.uc > out.txt; grep -q "preduce-add" out.txt
$UCC cstar ../examples/uc/shortest_path.uc > out.txt; grep -q "domain SHAPE_6x6" out.txt
$UCC interp ../examples/uc/quickstart.uc > out.txt; grep -q "largest square = 81" out.txt
$UCC examples > out.txt; grep -q "obstacle_grid" out.txt
$UCC show wavefront > out.txt; grep -q "solve (I, J)" out.txt

# optimization flags are accepted and keep results stable
# (sed, not head: head would SIGPIPE the compiler under pipefail)
a=$($UCC run ../examples/uc/stencil_mapped.uc --arrays a | sed -n 1p)
b=$($UCC run ../examples/uc/stencil_mapped.uc --arrays a --no-news --no-cse --no-mappings --no-procopt | sed -n 1p)
[ "$a" = "$b" ]

# the profiler attributes time to source lines
$UCC run ../examples/uc/obstacle_grid.uc --profile > out.txt; grep -q "line 12" out.txt

# errors are reported with a location and a non-zero exit
if $UCC check /dev/null 2>/dev/null; then exit 1; fi
echo "int x" > bad.uc
if $UCC check bad.uc 2>err.txt; then exit 1; fi
grep -q "error" err.txt

# corpus-invalid input to run/interp: one-line error:, non-zero exit,
# never an uncaught exception backtrace
if $UCC run bad.uc 2>err.txt; then exit 1; fi
grep -q "error" err.txt
if grep -q "uncaught exception" err.txt; then exit 1; fi
if $UCC interp bad.uc 2>err.txt; then exit 1; fi
grep -q "error" err.txt
# a program without main is reported once, at the end of the file, by
# run, check, interp and batch alike
printf 'int x;\nvoid f() {}\n' > nomain.uc
for sub in run check interp; do
  if $UCC $sub nomain.uc 2>err.txt; then exit 1; fi
  grep -qx "nomain.uc:3:1: error: program has no main function" err.txt
  if grep -q "uncaught exception" err.txt; then exit 1; fi
done
echo nomain.uc > nomain_manifest.txt
if $UCC batch nomain_manifest.txt --cache-dir none > nomain.jsonl 2>/dev/null; then
  exit 1
fi
grep -q '"error":"3:1: program has no main function"' nomain.jsonl
# a constant the machine would fault on is one located error:, exit 1
printf 'index-set I:i = {0..1 << 64};\nint a[4];\nvoid main() { par (I) a[i] = i; }\n' > bigset.uc
rc=0; $UCC check bigset.uc >out.txt 2>err.txt || rc=$?
[ "$rc" = 1 ]
[ "$(cat out.txt err.txt)" = "bigset.uc:1:21: error: shift amount 64 is out of range (0..62) in constant expression" ]
# a shift amount out of range faults on the machine and on the oracle
printf 'int x, k;\nvoid main() { k = 70; x = 1 << k; }\n' > shl70.uc
for sub in run interp; do
  rc=0; $UCC $sub shl70.uc >out.txt 2>err.txt || rc=$?
  [ "$rc" = 1 ]
  grep -q "shift amount 70 is out of range (0..62)" err.txt
done
if $UCC run ../examples/uc/quickstart.uc --arrays nosuch 2>err.txt; then exit 1; fi
grep -q "error" err.txt
if grep -q "uncaught exception" err.txt; then exit 1; fi

# batch service: whole corpus on 2 domains, JSON-lines report; a second
# pass over the same cache is served entirely from it with identical
# simulated seconds
rm -rf batch_cache
$UCC batch --jobs 2 --cache-dir batch_cache > pass1.jsonl 2> batch1.log
$UCC batch --jobs 2 --cache-dir batch_cache > pass2.jsonl 2> batch2.log
jobs_total=$(grep -c '"job":' pass1.jsonl)
[ "$jobs_total" -gt 0 ]
grep -q '"summary":true' pass1.jsonl
[ "$(grep -c '"cache":"hit"' pass2.jsonl)" = "$jobs_total" ]
strip() { sed 's/,"wall_seconds":[^,]*,"cache":"[a-z]*"}/}/' "$1" | grep '"job":'; }
[ "$(strip pass1.jsonl)" = "$(strip pass2.jsonl)" ]

# a manifest mixing corpus names, files and per-job settings
cat > manifest.txt <<'EOF'
# corpus name with default settings
quickstart
# a file path, a reseeded job, and an option-ablated job
../examples/uc/quickstart.uc
reductions seed=777
stencil no-news no-cse
EOF
$UCC batch manifest.txt --cache-dir none > manifest.jsonl 2>/dev/null
[ "$(grep -c '"job":' manifest.jsonl)" = 4 ]

# a manifest job that exhausts its fuel is a failed row, exit code 2
echo "shortest_path_n2 fuel=5" > manifest_fuel.txt
if $UCC batch manifest_fuel.txt --cache-dir none > fuel.jsonl 2>/dev/null; then
  exit 1
else
  [ "$?" = 2 ]
fi
grep -q '"status":"failed"' fuel.jsonl

# ---- execution engines ----

# every engine name prints byte-identical results (`sharded` names the
# retired sharded engine and runs on the fast kernels at any count)
out_fast=$($UCC run ../examples/uc/quickstart.uc --engine fast)
out_ref=$($UCC run ../examples/uc/quickstart.uc --engine reference)
out_sh1=$($UCC run ../examples/uc/quickstart.uc --engine sharded --shards 1)
out_sh7=$($UCC run ../examples/uc/quickstart.uc --engine sharded --shards 7)
[ "$out_fast" = "$out_ref" ]
[ "$out_fast" = "$out_sh1" ]
[ "$out_fast" = "$out_sh7" ]

# an unknown engine is a one-line error: naming the valid set, exit 1
if $UCC run ../examples/uc/quickstart.uc --engine warp 2>err.txt; then exit 1; fi
grep -q '^error: unknown engine "warp" (valid: fast, reference, sharded, native)$' err.txt
[ "$(wc -l < err.txt)" = 1 ]
# the same validator backs --shards
if $UCC run ../examples/uc/quickstart.uc --engine sharded --shards 0 2>err.txt; then exit 1; fi
grep -q '^error: shard count must be at least 1' err.txt
# a fuel slice below 1 is a one-line rejection too (also through the
# --fuel prefix), before any job runs
if $UCC run ../examples/uc/quickstart.uc --fuel-slice 0 2>err.txt; then exit 1; fi
grep -q 'fuel slice must be at least 1 (got 0)' err.txt
[ "$(wc -l < err.txt)" = 1 ]
if $UCC run ../examples/uc/quickstart.uc --fuel 0 2>err.txt; then exit 1; fi
grep -q 'fuel slice must be at least 1 (got 0)' err.txt
if $UCC batch --cache-dir none --fuel-slice 0 >slice0.jsonl 2>err.txt; then exit 1; fi
grep -q 'fuel slice must be at least 1 (got 0)' err.txt
[ ! -s slice0.jsonl ]
# and --help lists the same engines (one source for both)
$UCC run --help=plain > help.txt
grep -q "fast, reference, sharded" help.txt

# manifest rows carry engine= and shards= columns; the engine is part of
# the job digest, so the three rows never share a cache entry ...
cat > manifest_engine.txt <<'EOF'
quickstart engine=fast
quickstart engine=sharded shards=3
quickstart engine=reference
EOF
$UCC batch manifest_engine.txt --cache-dir none > engines.jsonl 2>/dev/null
grep -q '"engine":"fast"' engines.jsonl
grep -q '"engine":"sharded:3","engine_effective":"fast"' engines.jsonl
grep -q '"engine":"reference"' engines.jsonl
[ "$(grep '"job":' engines.jsonl | sed 's/.*"digest":"\([^"]*\)".*/\1/' | sort -u | wc -l)" = 3 ]
# ... while everything deterministic about the rows agrees byte for byte
[ "$(strip engines.jsonl | sed 's/"digest":"[^"]*",//;s/"engine":"[^"]*",//;s/"engine_effective":"[^"]*",//' | sort -u | wc -l)" = 1 ]

# `native` names the retired native engine: the corpus runs on the fast
# kernels, rows equal fast's apart from the engine (and so the digest),
# every job row says engine_effective fast, and nothing warns
$UCC batch --cache-dir none --engine fast > corpus_fast.jsonl 2>/dev/null
$UCC batch --cache-dir none --engine native > corpus_native.jsonl 2>native.err
unengined() { strip "$1" | sed 's/"digest":"[^"]*",//;s/"engine":"[^"]*",//'; }
[ "$(unengined corpus_fast.jsonl)" = "$(unengined corpus_native.jsonl)" ]
[ "$(grep -c '"engine":"native","engine_effective":"fast"' corpus_native.jsonl)" \
  = "$(grep -c '"job":' corpus_native.jsonl)" ]
if grep -q 'native engine' native.err; then exit 1; fi

# an unknown engine name in a manifest is rejected with its line number
echo "quickstart engine=warp" > manifest_bad.txt
if $UCC batch manifest_bad.txt --cache-dir none 2>err.txt; then exit 1; fi
grep -q 'manifest line 1: unknown engine "warp"' err.txt

# ---- fault injection ----

# a hard transient fault aborts the run with a one-line diagnostic
if $UCC run ../examples/uc/quickstart.uc --faults chip@0 2>err.txt; then exit 1; fi
grep -q "transient" err.txt
if grep -q "uncaught exception" err.txt; then exit 1; fi

# an attempt-0-only fault plus a retry recovers and prints the answer
out=$($UCC run ../examples/uc/quickstart.uc --faults 'chip@0#0' --retries 1 2>retry.log)
echo "$out" | grep -q "sum of squares 0..9 = 285"
grep -q "retrying" retry.log

# a bogus plan is a one-line error, exit 1
if $UCC run ../examples/uc/quickstart.uc --faults zorp@1 2>err.txt; then exit 1; fi
grep -q "bad fault plan" err.txt

# manifest rows carry faults= and retries= columns
cat > manifest_faults.txt <<'EOF'
quickstart faults=chip@0#0 retries=1
quickstart faults=chip@0
EOF
if $UCC batch manifest_faults.txt --cache-dir none > faults.jsonl 2>/dev/null; then
  exit 1
else
  [ "$?" = 2 ]
fi
grep -q '"status":"ok"' faults.jsonl
grep -q '"attempts":2' faults.jsonl
grep -q '"status":"faulted"' faults.jsonl
grep -q '"fault_trace"' faults.jsonl

# a bad faults= value is rejected with the offending line number
echo "quickstart faults=zorp@1" > manifest_bad.txt
if $UCC batch manifest_bad.txt --cache-dir none 2>err.txt; then exit 1; fi
grep -q "manifest line 1: bad faults value" err.txt
echo "quickstart retries=x" > manifest_bad.txt
if $UCC batch manifest_bad.txt --cache-dir none 2>err.txt; then exit 1; fi
grep -q "manifest line 1: bad retries value" err.txt

# batch-wide plan: every job either finishes or is quarantined (never a
# crash), and the per-job policy flags are accepted
$UCC batch --cache-dir none --faults 'seed=9;horizon=20000;router=1' \
  --retries 2 --fuel-slice 50000 > faultgate.jsonl 2>/dev/null || [ "$?" = 2 ]
if grep -q '"status":"failed"' faultgate.jsonl; then exit 1; fi
if grep -q '"status":"timeout"' faultgate.jsonl; then exit 1; fi
grep -q '"summary":true' faultgate.jsonl

# ---- telemetry ----

# --metrics prints the aggregate table on stderr; results are unchanged
out=$($UCC run ../examples/uc/quickstart.uc --metrics 2>metrics.txt)
echo "$out" | grep -q "sum of squares 0..9 = 285"
grep -q "cm.pe_ops" metrics.txt
grep -q "compile.parse.ms" metrics.txt

# --trace=FILE writes JSON-lines events; stdout is unchanged
out=$($UCC run ../examples/uc/quickstart.uc --trace=trace.jsonl)
echo "$out" | grep -q "sum of squares 0..9 = 285"
grep -q '"name":"compile.parse"' trace.jsonl
grep -q '"phase":"begin"' trace.jsonl

# --ir-opt-stats now reads from the same spine
$UCC run ../examples/uc/quickstart.uc --ir-opt-stats 2>iropt.txt > /dev/null
grep -q "iropt" iropt.txt

# unknown array/scalar names are one-line errors listing the known ones
if $UCC run ../examples/uc/quickstart.uc --arrays nosuch 2>err.txt; then exit 1; fi
grep -q "known arrays" err.txt

# batch --trace/--metrics: job lifecycle events and cache counters
$UCC batch manifest.txt --cache-dir none --trace=batch_trace.jsonl --metrics \
  > /dev/null 2>batch_metrics.txt
grep -q '"name":"job"' batch_trace.jsonl
grep -q '"name":"job.cache"' batch_trace.jsonl
grep -q "ucd.cache.run_misses" batch_metrics.txt

# a parallel batch publishes pool health counters through the same spine
$UCC batch manifest.txt --cache-dir none --jobs 2 --metrics \
  > /dev/null 2>pool_metrics.txt
grep -q "ucd.pool.completed" pool_metrics.txt
grep -q "ucd.pool.max_depth" pool_metrics.txt

# ---- serve / submit ----

# socket paths must stay short (sun_path limit); the sandbox cwd is deep
SOCK=$(mktemp -u "${TMPDIR:-/tmp}/ucc_cli_XXXXXX.sock")
SOCK2=$(mktemp -u "${TMPDIR:-/tmp}/ucc_cli_XXXXXX.sock")
SERVE_PID= ; SERVE2_PID=
trap 'kill $SERVE_PID $SERVE2_PID 2>/dev/null || true' EXIT

wait_sock() {
  for _ in $(seq 1 200); do [ -S "$1" ] && return 0; sleep 0.05; done
  return 1
}

$UCC serve --socket "$SOCK" --cache-dir none --jobs 2 --max-queue 64 \
  2> serve.log &
SERVE_PID=$!
wait_sock "$SOCK"

# the daemon's corpus rows are byte-identical to batch's once wall time
# and cache provenance are dropped
$UCC batch --cache-dir none > serve_batch.jsonl 2>/dev/null
$UCC submit --socket "$SOCK" --corpus --wait > serve_submit.jsonl 2>submit.log
[ "$(strip serve_batch.jsonl)" = "$(strip serve_submit.jsonl)" ]

# --stats answers with the pool and session tables on stderr
$UCC submit --socket "$SOCK" --stats 2> serve_stats.txt
grep -q '"pool"' serve_stats.txt
grep -q '"sessions"' serve_stats.txt

# ucc status: the read-only operational snapshot on stdout
$UCC status --socket "$SOCK" > status.json
grep -q '"uptime_seconds"' status.json
grep -q '"pool"' status.json
grep -q '"journal"' status.json
# a digest nobody submitted is state "unknown", exit 1
if $UCC status --socket "$SOCK" \
     --digest 00000000000000000000000000000000 > digest.json; then
  exit 1
else
  [ "$?" = 1 ]
fi
grep -q '"state":"unknown"' digest.json

# exit-code contract: a quarantined (faulted) job makes `submit --wait`
# exit 2, exactly like `ucc batch` (see README for the 0/1/2 table)
if $UCC submit --socket "$SOCK" ../examples/uc/quickstart.uc \
     --faults chip@0 --wait > faulted.jsonl 2>/dev/null; then
  exit 1
else
  [ "$?" = 2 ]
fi
grep -q '"status":"faulted"' faulted.jsonl

# SIGTERM drains, logs a clean exit, removes the socket, exits 0
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
grep -q "drained cleanly" serve.log
[ ! -e "$SOCK" ]

# admission control: a tiny queue sheds pipelined corpus load with a
# typed `overloaded` rejection (exit 2), never a hang or a crash
$UCC serve --socket "$SOCK2" --cache-dir none --jobs 1 --max-queue 1 \
  2> serve2.log &
SERVE2_PID=$!
wait_sock "$SOCK2"
if $UCC submit --socket "$SOCK2" --corpus --wait \
     > overload.jsonl 2> overload.log; then
  exit 1
else
  [ "$?" = 2 ]
fi
grep -q "rejected (overloaded)" overload.log
# the daemon stays healthy afterwards: a follow-up submit still runs
$UCC submit --socket "$SOCK2" ../examples/uc/quickstart.uc --wait \
  > after_overload.jsonl 2>/dev/null
grep -q '"status":"ok"' after_overload.jsonl

# --drain asks the server to finish in-flight work and exit cleanly
$UCC submit --socket "$SOCK2" --drain 2> drain.log
grep -q "server draining" drain.log
wait "$SERVE2_PID"
SERVE2_PID=
grep -q "drained cleanly" serve2.log
trap - EXIT

# ---- bench command line ----

# a bad section name or a --json without its FILE is a usage error
# (exit 2) before any section runs
BENCH=../bench/main.exe
if $BENCH ablation-mapping > bench.out 2> bench.err; then exit 1; else [ "$?" = 2 ]; fi
grep -q "unknown section or option ablation-mapping" bench.err
if grep -q "===" bench.out; then exit 1; fi
if $BENCH a6 --json > bench.out 2> bench.err; then exit 1; else [ "$?" = 2 ]; fi
grep -q -- "--json needs a FILE" bench.err
if grep -q "===" bench.out; then exit 1; fi

echo "cli ok"
