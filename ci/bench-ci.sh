#!/bin/sh
# The bench suite at CI sizes, in one invocation: perf1, perf13 and
# perf14 at their default sizes, perf15 at 4000 transactions and
# perf16-19 at 10 transactions per client. Every BENCH_<id>.json lands in
# the repository root, where `replisim compare ci/gates.txt` judges it.
# The deterministic part of the output is copied into OUT_DIR: stdout
# without the perf15 section (wall-clock numbers) and every BENCH file
# but perf15's. ci/check.sh compares that against ci/bench-expected/;
#
#   sh ci/bench-ci.sh ci/bench-expected
#
# regenerates the pinned files.
#
#   sh ci/bench-ci.sh OUT_DIR
set -eu

cd "$(dirname "$0")/.."
out=$1
mkdir -p "$out"
PERF15_TXNS=4000 PERF16_TXNS=10 PERF17_TXNS=10 PERF18_TXNS=10 \
  PERF19_TXNS=10 dune exec bench/main.exe -- \
  perf1 perf13 perf14 perf15 perf16 perf17 perf18 perf19 > "$out/stdout.raw"
awk '/^perf15 — /{ skip = 1 } /^perf16 — /{ skip = 0 } !skip' \
  "$out/stdout.raw" > "$out/stdout.txt"
rm "$out/stdout.raw"
for id in perf1 perf13 perf14 perf16 perf17 perf18 perf19; do
  cp "BENCH_$id.json" "$out/"
done
