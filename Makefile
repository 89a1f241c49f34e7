# Development entry points.  `make ci` is the gate every change must
# pass: full build, engine-equivalence corpus check, full test suite,
# a CLI sanity check, and the whole corpus run under a canned fault
# plan with retries; it stops loudly at the first failing step.

.PHONY: all build test ci ci-faultgate ci-iropt ci-obs ci-serve ci-crash ci-tune bench batch clean

all: build

build:
	dune build

test:
	dune runtest

ci: ci-faultgate ci-iropt ci-obs ci-serve ci-crash ci-tune
	dune build
	dune exec test/test_engine.exe -- test corpus
	dune runtest
	dune exec bin/ucc.exe -- examples

# IR-optimizer gate: the whole UC/C* corpus with the optimizer on vs
# off must print the same output, leave the same named arrays/scalars
# and never increase simulated ns; and on the corpus, the C* programs
# and the compile workload's generator grid a second run of the
# optimizer must change nothing.  (The paper's simulated bench rows
# are pinned separately: `dune runtest` diffs a live bench run against
# bench/rows.expected.jsonl.)
ci-iropt: build
	dune exec test/test_iropt.exe -- test corpus

# Telemetry gate: the whole corpus, on both engines, must produce a
# bit-identical observable snapshot with tracing on and off, and every
# trace line must round-trip through Ucd.Jsonu byte for byte.
ci-obs: build
	dune exec test/test_obs.exe -- test corpus

# Recovery gate: the whole corpus under a transient-fault plan with
# retries enabled.  Exit 0 (every fault retried away) and exit 2 (some
# jobs quarantined as "faulted") are both acceptable; what must never
# appear is a failed or timed-out row, a crash, or a hang (the timeout
# bounds the gate).  Transients only: bit flips can corrupt a divisor
# or address and turn into a legitimate Machine.Error = failed row.
ci-faultgate: build
	timeout 300 dune exec bin/ucc.exe -- batch --cache-dir none \
	  --faults "seed=2026;horizon=1000;router=1;news=1;chip=1" \
	  --retries 3 --fuel-slice 50000 --report _ci_faultgate.jsonl \
	  || test $$? -eq 2
	@! grep -q '"status":"failed"' _ci_faultgate.jsonl
	@! grep -q '"status":"timeout"' _ci_faultgate.jsonl
	@grep -q '"summary":true' _ci_faultgate.jsonl
	@echo "fault gate: every job ended Done or Faulted"
	@rm -f _ci_faultgate.jsonl

# Layout-tuner gate: `ucc tune` over the whole corpus (every emitted
# map section re-parses and --apply is idempotent, predicted chosen
# cost never above predicted default), then a tuned batch sweep that
# must be observably bit-identical to the untuned one with every tuned
# row stamped.
ci-tune: build
	timeout 300 bash test/ci_tune.sh

# Serve gate: boot the daemon, push the whole corpus from two
# concurrent clients, require their rows bit-identical to `ucc batch`,
# repeat under six non-default knob settings (`ucc submit` flags vs
# `ucc batch` manifest columns, byte-identical rows), shed load through
# a typed `overloaded` rejection, and drain cleanly;
# the timeout bounds the gate, so a hang is a failure, not a wait.
ci-serve: build
	timeout 300 bash test/ci_serve.sh

# Crash gate: SIGKILL the daemon mid-corpus, restart it over the same
# cache dir, and require the write-ahead journal to recover every
# accepted job — zero lost, zero duplicated, report rows byte-identical
# to an uninterrupted `ucc batch` run.
ci-crash: build
	timeout 300 bash test/ci_crash.sh

# the paper's figures, conciseness table and ablations in simulated
# CM-2 seconds (a few seconds); wall-clock numbers come from perfbench/
bench:
	dune exec bench/main.exe

# the full corpus through the batch service, parallel, with the on-disk cache
batch:
	dune exec bin/ucc.exe -- batch --jobs 4 --stats

clean:
	dune clean
	rm -rf _ucd_cache
