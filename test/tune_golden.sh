#!/usr/bin/env bash
# Golden pin of the layout tuner: `ucc tune --json` over every corpus
# program under the default options and under --no-news, --no-cse and
# --no-procopt.  Prints one JSON line per (program, variant) with the
# chosen table, each array's layout, rationale and ns figures, both
# predictions and the whole-program ns figures; the "file" field (the
# path of the scratch source) is dropped.  `dune runtest` diffs the
# output against tune_golden.expected.jsonl.
# Usage: tune_golden.sh UCC
set -euo pipefail
trap 'echo "tune_golden.sh: FAILED at line $LINENO: $BASH_COMMAND" >&2' ERR

UCC=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/ucc_tune_golden.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

$UCC examples >"$WORK/names"
while read -r name; do
  $UCC show "$name" >"$WORK/$name.uc"
  for variant in default no-news no-cse no-procopt; do
    flag=()
    [ "$variant" = default ] || flag=("--$variant")
    $UCC tune --json "${flag[@]}" "$WORK/$name.uc" >"$WORK/out.json"
    printf '{"program":"%s","variant":"%s",' "$name" "$variant"
    sed -e 's/^{"file":"[^"]*",//' "$WORK/out.json"
  done
done <"$WORK/names"
