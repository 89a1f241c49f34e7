#!/usr/bin/env bash
# Golden pin of the Paris IR: `ucc paris` over every corpus program with
# the IR optimizer on (the default) and off.  Each dump carries the IR
# and the static-summary footer (instruction classes and straight-line
# cost), so a change to the optimizer's folds, the instruction names or
# classes, or the static cost shows here.
# `dune runtest` diffs the output against paris_golden.expected.
# Usage: paris_golden.sh UCC
set -euo pipefail
trap 'echo "paris_golden.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ucc_paris_golden.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

$UCC examples >"$WORK/names"
while read -r name; do
  $UCC show "$name" >"$WORK/$name.uc"
  for variant in default ir-opt-off; do
    flag=()
    [ "$variant" = default ] || flag=(--ir-opt off)
    echo "=== $name $variant"
    $UCC paris "${flag[@]}" "$WORK/$name.uc"
  done
done <"$WORK/names"
