#!/bin/sh
# The CLI's JSON outputs at fixed arguments, one file each, written into
# OUT_DIR: explain, the audit of an eager and a lazy technique, the
# timeline, the metrics snapshot, the span trace (JSONL, and Chrome for
# an eager and a lazy technique) and a crash-recover campaign over every
# technique. Every one is deterministic at a fixed
# seed; ci/check.sh compares OUT_DIR against ci/json-expected/, so a
# change to any exported byte shows up as a diff;
#
#   sh ci/json-ci.sh ci/json-expected
#
# regenerates the pinned files.
#
#   sh ci/json-ci.sh OUT_DIR
set -eu

cd "$(dirname "$0")/.."
out=$1
mkdir -p "$out"
r="dune exec bin/replisim.exe --"
$r explain --format json > "$out/explain.jsonl"
$r audit -t active --format json > "$out/audit-active.json"
$r audit -t lazy-primary --format json > "$out/audit-lazy-primary.json"
$r timeline -t active --format json > "$out/timeline-active.jsonl"
$r metrics -t active --json > "$out/metrics-active.jsonl"
$r trace -t active --format jsonl > "$out/trace-active.jsonl"
$r trace -t active --format chrome > "$out/trace-active.chrome.json"
$r trace -t lazy-primary --format chrome > "$out/trace-lazy-primary.chrome.json"
$r campaign --scenario crash-recover --techniques all --seeds 11 \
  --jsonl "$out/campaign-crash-recover.jsonl" > /dev/null
