#!/bin/sh
# Minimal CI entry point: formatting (when the formatter is available),
# build, and the full test suite.
#
#   sh ci/check.sh
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== fmt check =="
  dune build @fmt
else
  echo "== fmt check skipped (ocamlformat not installed) =="
fi

echo "== build =="
dune build

echo "== tests =="
dune runtest

# One fast fault-injection sweep: every technique through the
# crash-recover scenario; exits non-zero on any oracle violation.
echo "== campaign smoke =="
dune exec bin/replisim.exe -- campaign --scenario crash-recover \
  --techniques all --seeds 11

# §5 conformance: every technique's measured message count and
# communication-step depth (from causally-linked message spans) must
# match its declared expectation; exits non-zero on deviation. The
# expectations describe the unbatched default configuration, so this
# gate runs without --set.
echo "== message-cost matrix =="
dune exec bin/replisim.exe -- explain --check --format csv

# Paper figures: fig1-fig16 regenerated from executed traces (the main
# consumer of the flat phase-mark view). Every timeline's observed
# signature must match its paper row, and Figure 16 must report all ten
# techniques (or more) matching.
echo "== figures =="
figs=$(dune exec bench/main.exe -- fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 \
  fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16)
if printf '%s\n' "$figs" | grep -q '\*\* MISMATCH \*\*'; then
  printf '%s\n' "$figs" | grep '\*\* MISMATCH \*\*' >&2
  echo "figures: an observed signature differs from its paper row" >&2
  exit 1
fi
set -- $(printf '%s\n' "$figs" \
  | sed -n 's|^\([0-9]*\)/\([0-9]*\) observed signatures match.*|\1 \2|p')
if [ "${1:-0}" -lt 10 ] || [ "$1" != "${2:-}" ]; then
  echo "figures: Figure 16 matched ${1:-0}/${2:-?} signatures, want 10/10" >&2
  exit 1
fi
echo "figures: no mismatch, Figure 16 $1/$2"

# Runtime configuration smoke: non-default technique parameters applied
# from the command line, without recompilation — the consensus-based
# ordering engine under certification, and sequencer batching under
# active replication — plus the schema printer.
echo "== runtime configuration smoke =="
dune exec bin/replisim.exe -- run -t certification \
  --set certification.abcast_impl=consensus --txns 10 > /dev/null
dune exec bin/replisim.exe -- run -t active \
  --set active.batch_window=5ms --txns 10 > /dev/null
dune exec bin/replisim.exe -- config active > /dev/null

# Sharded-operation smoke: a sharded campaign (4 groups of 2 through
# crash-recover, every oracle judged per group), the §5 message-cost
# check against a sharded configuration (the expectation applies at the
# group size, not the cluster size), and one cross-shard run exercising
# the 2PC commit path.
echo "== sharded smoke =="
dune exec bin/replisim.exe -- campaign --scenario crash-recover \
  --techniques active --replicas 8 --set active.shards=4 --seeds 11
dune exec bin/replisim.exe -- explain --check -t active -n 8 \
  --set active.shards=4 > /dev/null
dune exec bin/replisim.exe -- run -t active -n 8 --set active.shards=4 \
  --ops 2 --cross 0.3 --txns 10 > /dev/null

# Resource-timeline smoke: sample two techniques through the
# partition-heal scenario; --check exits non-zero if any saturation
# finding falls outside a fault window or the group-stack backlog fails
# to grow during the partition and drain after the heal.
echo "== timeline smoke =="
dune exec bin/replisim.exe -- timeline -t active --check
dune exec bin/replisim.exe -- timeline -t eager-ue-locking --check

# Machine-readable bench output: two fast experiments, then validate
# every BENCH_*.json against the schema.
echo "== bench output schema =="
dune exec bench/main.exe -- perf1 > /dev/null
dune exec bench/main.exe -- perf13 > /dev/null
dune exec bench/main.exe -- perf14 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf*.json

# Engine self-profile smoke: --check enforces the profiler's internal
# identities on a live run (per-bucket event counts sum back to the
# engine's executed-event counter; wall and allocation shares each sum
# to ~1.0) and the JSON output must parse. Run with tracing on and off
# so both sides of the lazy-span gate stay exercised.
echo "== profile smoke =="
dune exec bin/replisim.exe -- profile -t active --txns 20 \
  --format json --check > /dev/null
dune exec bin/replisim.exe -- profile -t lazy-primary --no-tracing --txns 20 \
  --format json --check > /dev/null

# Simulator-throughput gate: perf15 at a CI-sized transaction count,
# then a floor roughly 20x below the measured baseline (~190k events/s
# with tracing off at the full 1e5-txn size) so only order-of-magnitude
# engine regressions trip it, not machine noise. The ceiling bounds the
# share of the tracing-on run spent after the event loop (phase summary
# over every rid): ~1.4% with the indexed span store, ~30-35% when that
# pass is quadratic, so 0.15 trips only on a super-linear regression.
# The heap ceiling bounds the tracing-off leg's peak heap per transaction
# (ROADMAP item 5): ~316 words/txn at 4000 txns with bounded group-stack
# bookkeeping, ~1313 when every stubborn-channel receiver keeps one entry
# per message it ever delivered; 800 sits 2.5x above the former and
# below the latter. The allocation ceiling bounds the minor-heap words
# the tracing-off leg allocates per event: ~47 with the int-array timer
# queue, unboxed RNG state and int-keyed channel tables, ~74 with a
# generic heap of timer records, a boxed RNG and tuple-keyed tables; 62
# sits between them.
echo "== simulator throughput floor =="
PERF15_TXNS=4000 dune exec bench/main.exe -- perf15 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf15.json \
  --floor perf15:events_per_sec:10000 \
  --ceiling perf15:postloop_share:0.15 \
  --ceiling perf15:heap_words_per_txn:800 \
  --ceiling perf15:alloc_words_per_event:62

# Sharding gate: perf16 at a CI-sized transaction count. probe_flat=1
# is Part A's verdict (single-shard message cost flat across cluster
# sizes at fixed group size); the throughput floor keeps the sharded
# cluster's simulated throughput from collapsing (cross=0 measures
# ~800 txn/s).
echo "== sharding bench =="
PERF16_TXNS=10 dune exec bench/main.exe -- perf16 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf16.json \
  --floor perf16:probe_flat:1 \
  --floor perf16:throughput:200

# Consistency-audit smoke: --check gates the measured form of the §4
# windows (eager: zero session-guarantee window; lazy: strictly positive
# post-commit window, drained by quiescence), plus one sharded run
# exercising the cross-shard snapshot-skew detector end to end.
echo "== consistency audit smoke =="
dune exec bin/replisim.exe -- audit -t active --check > /dev/null
dune exec bin/replisim.exe -- audit -t lazy-primary --check > /dev/null
dune exec bin/replisim.exe -- audit -t active -n 8 --set active.shards=4 \
  --ops 2 --cross 0.3 --check > /dev/null

# Consistency bench gate: perf17 at a CI-sized transaction count. Both
# floors are aggregate verdicts emitted as single rows: every run must
# drain, and every lazy run must measure a positive post-commit window.
echo "== consistency bench =="
PERF17_TXNS=10 dune exec bench/main.exe -- perf17 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf17.json \
  --floor perf17:audit_drained:1 \
  --floor perf17:lazy_visibility_positive:1

# Sweep + regression gates. The sweep re-runs the committed baseline's
# grid (2 techniques × closed/open load × zipf off/on) with the same
# seeds; records are normalized, so compare against baseline/ must come
# back all-unchanged — any drift in a measured metric beyond the
# per-metric thresholds is a regression and fails the build. The
# --perturb leg injects a 50% latency regression into the candidate set
# and requires the gate to trip, so a silently-passing compare is itself
# caught.
echo "== sweep + regression gates =="
rm -rf _sweep_ci
dune exec bin/replisim.exe -- sweep --techniques active,lazy-primary \
  --loads closed,200 --zipf 0,0.9 --txns 10 --out _sweep_ci \
  --format none 2> /dev/null
dune exec bin/replisim.exe -- compare baseline _sweep_ci
if dune exec bin/replisim.exe -- compare baseline _sweep_ci \
     --perturb latency_p95:1.5 > /dev/null 2>&1; then
  echo "compare failed to flag an injected 50% latency regression" >&2
  exit 1
fi
rm -rf _sweep_ci

# Quadrant-sweep bench gate: perf18 at a CI-sized transaction count.
# The floors pin the grid size, the taxonomy verdict (every lazy
# quadrant replies below its eager column-mate) and a throughput
# sanity bound; the ceiling is the first use of the upper-bound gate —
# the grid's best p95 collapsing upward means every technique got
# slower at once.
echo "== quadrant sweep bench =="
PERF18_TXNS=10 dune exec bench/main.exe -- perf18 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf18.json \
  --floor perf18:cells:16 \
  --floor perf18:lazy_faster_than_eager:1 \
  --floor perf18:best_throughput:400 \
  --ceiling perf18:best_latency_p95:25

# Routing-tier smoke: the audit gate must hold with the router in the
# path (sticky and round-robin — lazy's positive post-commit window is
# measured at the replica stores, so stickiness can't mask it), a
# flash-crowd run must complete, and the failover leg re-runs the
# deterministic crash schedule from test_router and asserts the router
# actually resent a read (failovers >= 1, nothing abandoned).
echo "== routing tier smoke =="
dune exec bin/replisim.exe -- audit -t lazy-primary --sticky --check > /dev/null
dune exec bin/replisim.exe -- audit -t lazy-primary --router --check > /dev/null
dune exec bin/replisim.exe -- run -t lazy-primary --router --flash-crowd \
  > /dev/null
if ! dune exec bin/replisim.exe -- run -t active --router \
       --crash 0@60ms --recover 0@120ms \
     | grep -Eq 'failovers=[1-9][0-9]* gave_up=0'; then
  echo "router failover leg: no read survived the crash via retry" >&2
  exit 1
fi

# Routed-tier bench gate: perf19 at a CI-sized transaction count. The
# floors pin the headline verdicts — sticky routing measures zero
# read-your-writes violations where round-robin measures a strictly
# positive count, all four flash-crowd quadrant cells ran, and at least
# one mid-spike read was answered only because the router failed it
# over (with none abandoned). The ceiling nails ryw_sticky to zero.
echo "== routed tier bench =="
PERF19_TXNS=10 dune exec bench/main.exe -- perf19 > /dev/null
dune exec bin/replisim.exe -- bench-check BENCH_perf19.json \
  --floor perf19:sticky_eliminates_ryw:1 \
  --floor perf19:ryw_nonsticky:1 \
  --floor perf19:failover_success:1 \
  --floor perf19:flash_cells:4 \
  --floor perf19:flash_best_throughput:300 \
  --ceiling perf19:ryw_sticky:0

echo "== ci: OK =="
