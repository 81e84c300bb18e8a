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

# Per-run world: a run's state lives on its network and its instance, so
# lib/ keeps no process-global mutable values. Flag every top-level (or
# functor-level, two-space indented) value bound to a [ref] or a
# [Hashtbl.create]; a local binding ends in [in]. The one allowed:
# Msg.registry, the message-name registry, written only while modules
# initialise.
echo "== no process-global state in lib =="
globals=$(grep -rnE --include='*.ml' \
    '^(  )?let [a-z_][A-Za-z0-9_]*( *:[^=]*)? *= *(ref|Hashtbl\.create)( |\(|$)' lib \
  | grep -vE ' in *$' \
  | grep -vE '^lib/sim/msg\.ml:[0-9]+:let registry ' \
  || true)
if [ -n "$globals" ]; then
  printf '%s\n' "$globals" >&2
  echo "lib/ gained process-global mutable state; keep it on the run's network or instance" >&2
  exit 1
fi

# Ids at the edge: an instance id is needed only where a message reaches
# a handler stack several instances share — Rchan's Data/Ack, Fd's
# Heartbeat and Common's Reply/Read_req. Every layer above a channel owns
# that channel, so no other file may draw an id from the network.
echo "== instance ids only at the edge =="
ids=$(grep -rnE --include='*.ml' '(^|[^A-Za-z0-9_])fresh_id +[a-z_(]' \
    lib bin bench examples test \
  | grep -vE '^lib/(sim/network|group/rchan|group/fd|protocols/common)\.ml:' \
  || true)
if [ -n "$ids" ]; then
  printf '%s\n' "$ids" >&2
  echo "only Rchan, Fd and Common may call Network.fresh_id; a layer above a channel is identified by the channel it owns" >&2
  exit 1
fi

# One fault scheduler: a crash, recovery, partition or loss window is a
# Runner.fault, scheduled by Runner.schedule_faults whether it comes from
# the command line, a scenario or a tune hook. No other file may arm a
# timer labelled "fault".
echo "== one fault scheduler =="
faults=$(grep -rnF --include='*.ml' '~label:"fault"' \
    lib bin bench examples test benchmark \
  | grep -vE '^lib/workload/runner\.ml:' \
  || true)
if [ -n "$faults" ]; then
  printf '%s\n' "$faults" >&2
  echo "faults are scheduled only by Runner.schedule_faults; describe the fault as a Runner.fault" >&2
  exit 1
fi

# One request path: client submission (with its resubmission loop), the
# reply-cache type and recovery state transfer are written once, in
# lib/protocols/common.ml. No other protocol file may name the retry
# machinery, spell the reply cache's type, snapshot a store or declare
# a state-transfer message.
echo "== one request path in the technique layer =="
paths=$(grep -rnE --include='*.ml' --include='*.mli' \
    'retry_until_replied|cycling_target|Store\.Kv\.snapshot|bool \* int option|^ *\| *Sync_(req|state)\b' \
    lib/protocols \
  | grep -vE '^lib/protocols/common\.ml:' \
  || true)
if [ -n "$paths" ]; then
  printf '%s\n' "$paths" >&2
  echo "submit through Common.submit_to, cache replies in a Common.reply_cache and catch a recovered copy up through Common's state transfer" >&2
  exit 1
fi

# One workload term: every workload flag is declared once, in
# bin/cli.ml, and resolved there against the technique's configuration
# (the spec's shard count, --cross, the checked --crash/--recover faults,
# the routing tier). No other file in bin/ builds a spec, a fault
# schedule or a router configuration from flags itself.
echo "== one workload term =="
terms=$(grep -rnE --include='*.ml' \
    'Builder\.spec|Builder\.crash_schedule|Cli\.mix|router_config' bin \
  | grep -vE '^bin/cli\.ml:' \
  || true)
if [ -n "$terms" ]; then
  printf '%s\n' "$terms" >&2
  echo "take the workload from Cli.workload and resolve it with Cli.configure" >&2
  exit 1
fi

# No layer stacked on reliable broadcast: Rbcast numbers each origin's
# broadcasts and delivers them in FIFO order itself, so no other group
# module wraps it in a second per-origin counter and hold-back table.
echo "== no layer stacked on Rbcast =="
stacked=$(grep -rnw --include='*.ml' --include='*.mli' 'Rbcast' lib/group \
  | grep -vE '^lib/group/rbcast\.mli?:' \
  || true)
if [ -n "$stacked" ]; then
  printf '%s\n' "$stacked" >&2
  echo "order broadcasts inside Group.Rbcast and call it directly; do not wrap it in another group module" >&2
  exit 1
fi

# One description of a technique's settings: its schema, read by the
# technique's own create. No technique module keeps a typed config record
# beside the schema, and every technique is built through the Registry,
# so the CLI, the benches, the examples and the tests cannot run
# different defaults.
echo "== one description of a technique's settings =="
techniques='active passive semi_active semi_passive eager_primary
  eager_ue_locking eager_ue_abcast lazy_primary lazy_ue certification_based'
settings=$(for t in $techniques; do
    grep -nE '^ *(type config\b|(let|val) (default_config|config_of)\b)' \
      "lib/protocols/$t.ml" "lib/protocols/$t.mli"
  done || true)
builds=$(grep -rnE --include='*.ml' \
    'Protocols\.(Active|Passive|Semi_active|Semi_passive|Eager_primary|Eager_ue_locking|Eager_ue_abcast|Lazy_primary|Lazy_ue|Certification_based)\.create\b' \
    lib bin bench examples test benchmark \
  | grep -vE '^lib/protocols/' \
  || true)
if [ -n "$settings$builds" ]; then
  printf '%s\n' "$settings" "$builds" | grep -v '^$' >&2
  echo "describe a setting only in the technique's schema, and build techniques through Protocols.Registry" >&2
  exit 1
fi

# Passthrough belongs to the links: Network.config declares it, and the
# channel layer reads it (Rchan, and Rbcast, whose relays depend on it).
# No technique, no group layer above the channels and no workload file
# names it or forwards it.
echo "== passthrough only at the links =="
pt=$(grep -rn --include='*.ml' --include='*.mli' 'passthrough' lib \
  | grep -vE '^lib/(sim/network|group/rchan|group/rbcast)\.mli?:' \
  || true)
if [ -n "$pt" ]; then
  printf '%s\n' "$pt" >&2
  echo "declare loss-free links in Sim.Network.config; only the network and the channel layer name passthrough" >&2
  exit 1
fi

# One JSON encoder: every export builds a Sim.Json.t and writes it with
# Sim.Json.to_string, and every reader parses with Sim.Json.parse. Only
# Trace_export, which sizes its output exactly, writes JSON text itself.
# So no other file in lib/, bin/ or bench/ holds an object template
# ({\"), quotes a JSON string with OCaml's %S, or names Bench_out.parse.
echo "== one JSON encoder =="
json=$(grep -rnE --include='*.ml' '\{\\"|sprintf "%S"|Bench_out\.parse' \
    lib bin bench \
  | grep -vE '^lib/sim/(json|trace_export)\.ml:' \
  || true)
if [ -n "$json" ]; then
  printf '%s\n' "$json" >&2
  echo "build JSON as a Sim.Json.t, write it with Sim.Json.to_string and read it with Sim.Json.parse" >&2
  exit 1
fi

echo "== build =="
dune build

echo "== tests =="
dune runtest

# Replayable crash plans for the sequencer: its test group (40 generated
# crash-and-recover plans plus random schedules) under five fixed QCheck
# seeds, 200 plans more than `dune runtest`'s one fresh seed, over the
# takeover, re-ack and anti-entropy paths. A failure names its seed, so
# `QCHECK_SEED=N dune exec ./test/test_group.exe -- test abcast-sequencer`
# replays it.
echo "== abcast crash plans =="
start=$(date +%s)
for seed in 1 2 3 4 5; do
  if ! out=$(QCHECK_SEED=$seed dune exec ./test/test_group.exe -- \
      test abcast-sequencer 2>&1); then
    printf '%s\n' "$out" >&2
    echo "abcast crash plans: QCHECK_SEED=$seed failed" >&2
    exit 1
  fi
done
echo "QCHECK_SEED=1..5 passed in $(( $(date +%s) - start )) s"

# One fast fault-injection sweep: every technique through the
# crash-recover scenario; exits non-zero on any oracle violation.
echo "== campaign smoke =="
dune exec bin/replisim.exe -- campaign --scenario crash-recover \
  --techniques all --seeds 11
# With --jsonl -, stdout carries the JSONL alone (the table goes to
# stderr), byte for byte what --jsonl FILE writes.
c="dune exec bin/replisim.exe -- campaign --scenario crash-recover --techniques active --seeds 11"; $c --jsonl _campaign_ci.jsonl > /dev/null && $c --jsonl - 2>/dev/null | cmp - _campaign_ci.jsonl

# Recovery: every technique that catches a recovered copy up by state
# transfer (passive, eager-primary, eager-ue-locking) through the four
# scenarios that bring a replica back, over 30 seeds (1800 verdicts).
# A failure names technique, scenario and seed; replay it with
# `replisim campaign --scenario S --techniques T --seeds N`.
echo "== recovery campaign =="
start=$(date +%s)
dune exec bin/replisim.exe -- campaign \
  --scenario crash-recover,backup-crash-recover,partition-heal,chaos \
  --techniques passive,eager-primary,eager-ue-locking \
  --seeds "$(seq -s, 1 30)" > /dev/null
echo "recovery campaign passed in $(( $(date +%s) - start )) s"

# Primary copy over reliable FIFO broadcast: lazy-primary and
# eager-primary through every scenario over 30 seeds, at n=3 and n=5
# (2 x 7 x 30 runs each). A member relays a broadcast only when it
# suspects the origin, so agreement after an origin crash and every
# lost write across a state transfer are judged here. Replay a failure
# with `replisim campaign --scenario S --techniques T --replicas N
# --seeds K`.
echo "== primary-copy campaign =="
start=$(date +%s)
for n in 3 5; do
  dune exec bin/replisim.exe -- campaign \
    --techniques lazy-primary,eager-primary --replicas "$n" \
    --seeds "$(seq -s, 1 30)" > /dev/null
done
echo "primary-copy campaign passed in $(( $(date +%s) - start )) s"

# A refresh costs its n-1 copies, not a relay from every member: lazy
# primary copy at n=32 sends 9.4 msgs/txn (acks and stability notices
# included), 205.9 when every delivery was relayed; the ceiling is 20.
echo "== lazy-primary broadcast cost =="
out=$(dune exec bin/replisim.exe -- run -t lazy-primary -n 32 --clients 8 \
  --keys 1000 --txns 1000 --updates 0.1)
mpt=$(printf '%s\n' "$out" | sed -n 's/.*msgs\/txn=\([0-9.]*\).*/\1/p')
if [ -z "$mpt" ] || ! awk -v m="$mpt" 'BEGIN { exit !(m <= 20) }' \
   || ! printf '%s\n' "$out" | grep -q 'converged=true 1SR=true'; then
  printf '%s\n' "$out" >&2
  echo "lazy-primary n=32: msgs/txn=${mpt:-missing} (ceiling 20), or not converged and 1SR" >&2
  exit 1
fi
echo "msgs/txn=$mpt (ceiling 20)"

# Failover pays for what members lack, not for run length: the
# sequencer's new leader re-announces from the lowest delivery cursor it
# has heard. Six rolling leader crashes cost 62.5 msgs/txn that way and
# 166.5 when every takeover re-announced every slot from 0; the ceiling
# sits between the two, and the run must stay converged and 1SR.
echo "== abcast failover cost =="
out=$(dune exec bin/replisim.exe -- run -t eager-ue-abcast -n 3 --txns 400 \
  --crash 0@200ms --recover 0@350ms --crash 1@700ms --recover 1@850ms \
  --crash 2@1200ms --recover 2@1350ms --crash 0@1700ms --recover 0@1850ms \
  --crash 1@2200ms --recover 1@2350ms --crash 2@2700ms --recover 2@2850ms)
mpt=$(printf '%s\n' "$out" | sed -n 's/.*msgs\/txn=\([0-9.]*\).*/\1/p')
if [ -z "$mpt" ] || ! awk -v m="$mpt" 'BEGIN { exit !(m <= 100) }' \
   || ! printf '%s\n' "$out" | grep -q 'converged=true 1SR=true'; then
  printf '%s\n' "$out" >&2
  echo "abcast failover: msgs/txn=${mpt:-missing} (ceiling 100), or not converged and 1SR" >&2
  exit 1
fi
echo "msgs/txn=$mpt (ceiling 100)"

# §5 conformance: every technique's measured message count and
# communication-step depth (from causally-linked message spans) must
# match its declared expectation; exits non-zero on deviation. The
# expectations describe the unbatched default configuration, so this
# gate runs without --set.
echo "== message-cost matrix =="
dune exec bin/replisim.exe -- explain --check --format csv

# A --check reports its verdicts on stderr, so machine-readable stdout
# stays parseable under it: every line of the explain CSV has the
# header's 14 fields, and every line of the audit and timeline JSON
# output is a JSON object.
echo "== --check keeps stdout machine-readable =="
out=$(dune exec bin/replisim.exe -- explain --check --format csv 2> /dev/null)
if printf '%s\n' "$out" | awk -F, 'NF != 14 { bad = 1 } END { exit !bad }'; then
  printf '%s\n' "$out" | awk -F, 'NF != 14' >&2
  echo "explain --check --format csv: a stdout line without 14 fields" >&2
  exit 1
fi
for args in "audit -t active --check --format json" \
    "timeline -t active --check --format json"; do
  out=$(dune exec bin/replisim.exe -- $args 2> /dev/null)
  if printf '%s\n' "$out" | grep -qv '^{'; then
    printf '%s\n' "$out" | grep -v '^{' >&2
    echo "replisim $args: a stdout line that is not a JSON object" >&2
    exit 1
  fi
done

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

# Every example program runs to completion (exit status 0). Each is
# named in examples/dune and built by the build leg.
echo "== examples run =="
start=$(date +%s%N)
for name in $(sed -n 's/^ *(names \(.*\))$/\1/p' examples/dune); do
  if ! ./_build/default/examples/"$name".exe > /dev/null; then
    echo "examples/$name.exe failed" >&2
    exit 1
  fi
done
echo "examples ran in $(( ($(date +%s%N) - start) / 1000000 )) ms"

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

# The settings surface pinned: every technique's schema as `replisim
# config` prints it must match ci/config-expected.txt, so a key added or
# removed shows up as a diff a reviewer accepts. If the change is
# intended, regenerate with
# `dune exec bin/replisim.exe -- config > ci/config-expected.txt`.
echo "== configuration schema pinned =="
if ! dune exec bin/replisim.exe -- config | diff ci/config-expected.txt -; then
  echo "replisim config differs from ci/config-expected.txt (diff above)" >&2
  exit 1
fi

# Argument validation: an out-of-range ratio, count or fault event (a
# flag's or a scenario's) is a usage error (exit status 2), never a run
# with a silently odd workload. So is a compare against an empty
# baseline (it would pass vacuously), an unknown --threshold/--perturb
# metric, a negative threshold, a malformed gate file and a BENCH file
# that is malformed or reports nothing. A --set or --vary key the
# technique does not declare (here three-phase commit's retired switch,
# the retired client_retry and a made-up key) is refused, and the
# message lists the valid keys.
echo "== argument validation =="
unknown_key="run -t eager-primary --set eager-primary.nonblocking_commit=true --txns 5"
rm -rf _compare_empty_ci _gate_ci
mkdir _compare_empty_ci _gate_ci
printf 'perf1 latency_mean => 0\n' > _gate_ci/gates.txt
printf '{"bench":"perf1","results":[' > _gate_ci/BENCH_broken.json
printf '{"bench":"perf1","results":[]}\n' > _gate_ci/BENCH_empty.json
printf '{"bench":"perf1","results":[{"metric":"latency_mean","value":1}]}\n' \
  > _gate_ci/BENCH_perf1.json
for args in "run -t active --updates 1.5 --txns 5" \
    "sweep --techniques active --updates 0.5,1.5 --txns 5 --format none" \
    "run -t active -n 3 --crash 3@10ms --txns 5" \
    "run -t active --keys 0 --txns 5" \
    "run -t active --ops 0 --txns 5" \
    "run -t active --cross 1.5 --txns 5" \
    "run -t active -n 4 --set active.shards=2 --ops 2 --cross 1.5 --txns 5" \
    "metrics -t active --cross 1.5 --txns 5" \
    "profile -t active --keys 0 --txns 5" \
    "audit -t active --ops 0 --txns 5" \
    "campaign --scenario backup-crash-recover --replicas 2 --techniques active" \
    "sweep --techniques active --vary active.bogus=1,2 --txns 5 --format none" \
    "timeline -t active --scenario partition-heal -n 2" \
    "run -t passive --set passive.client_retry=0ms --txns 5" \
    "run -t active --set active.shards=0 --txns 5" \
    "profile -t active -n 3 --set active.shards=4" \
    "timeline -t active -n 3 --set active.shards=4" \
    "trace -t active --set active.shards=4" \
    "run -t active --set active.batch_window=-5ms --txns 5" \
    "run -t eager-primary --set eager-primary.abort_probability=1.5 --txns 5" \
    "$unknown_key" \
    "compare _compare_empty_ci baseline" \
    "compare baseline baseline --threshold latncy_p95:0.3" \
    "compare baseline baseline --threshold latency_p95:-1" \
    "compare baseline baseline --perturb latncy_p95:1.5" \
    "compare _gate_ci/gates.txt _gate_ci/BENCH_empty.json" \
    "compare ci/gates.txt _gate_ci/BENCH_broken.json" \
    "compare ci/gates.txt _gate_ci/BENCH_empty.json" \
    "compare ci/gates.txt _gate_ci/BENCH_perf1.json --perturb latncy_p95:1.5"; do
  status=0
  dune exec bin/replisim.exe -- $args > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "replisim $args: exit status $status, want 2" >&2
    exit 1
  fi
done
rm -rf _compare_empty_ci _gate_ci
if ! dune exec bin/replisim.exe -- $unknown_key 2>&1 >/dev/null \
    | grep -q 'valid keys: interactive, abort_probability, shards'; then
  echo "replisim $unknown_key: the message does not list the valid keys" >&2
  exit 1
fi
# A bench size variable that is set must be a positive integer; a typo
# or a zero is a usage error, never a silent run at the default size.
for size in abc 1O 0 -5; do
  status=0
  PERF16_TXNS=$size dune exec bench/main.exe -- perf16 > /dev/null 2>&1 \
    || status=$?
  if [ "$status" -ne 2 ]; then
    echo "PERF16_TXNS=$size bench/main.exe perf16: exit status $status, want 2" >&2
    exit 1
  fi
done
# A sweep resolves every cell's configuration before it runs the first
# cell, so a bad --vary value fails before any cell runs.
status=0
out=$(dune exec bin/replisim.exe -- sweep --techniques active \
  --vary active.batch_window=5ms,abc --txns 5 --format none \
  --out _sweep_ci 2>&1) || status=$?
rm -rf _sweep_ci
if [ "$status" -ne 2 ] || printf '%s\n' "$out" | grep -q '^sweep: \[1/'; then
  printf '%s\n' "$out" >&2
  echo "sweep with a bad --vary value: exit status $status, want 2 before any cell runs" >&2
  exit 1
fi
# --crash and --recover read their times as --set does (500us, 5ms, 1.5s).
dune exec bin/replisim.exe -- run -t active --crash 1@500us \
  --recover 1@1500us --txns 5 > /dev/null

# Sharded-operation smoke: sharded campaigns (4 groups of 2, and 2
# groups of 2 running multi-op transactions generated for the two
# shards, through crash-recover, every oracle judged per group), the §5
# message-cost check against a sharded configuration (the expectation
# applies at the group size, not the cluster size), and one cross-shard
# run exercising the 2PC commit path.
echo "== sharded smoke =="
dune exec bin/replisim.exe -- campaign --scenario crash-recover \
  --techniques active --replicas 8 --set active.shards=4 --seeds 11
dune exec bin/replisim.exe -- campaign --scenario crash-recover \
  --techniques active --replicas 4 --set active.shards=2 --ops 2 --seeds 11
dune exec bin/replisim.exe -- explain --check -t active -n 8 \
  --set active.shards=4 > /dev/null
dune exec bin/replisim.exe -- run -t active -n 8 --set active.shards=4 \
  --ops 2 --cross 0.3 --txns 10 > /dev/null

# Metrics smoke: the registry the sharded groups share holds labelled
# counters only, and the sharding wrapper's per-shard counter reaches it.
# The first output line is the run header; the samples follow it.
echo "== metrics smoke =="
out=$(dune exec bin/replisim.exe -- metrics -t active -n 8 \
  --set active.shards=4 --txns 20 --json)
out=$(printf '%s\n' "$out" | tail -n +2)
if printf '%s\n' "$out" | grep -o '"type":"[^"]*"' | grep -qv '"type":"counter"'; then
  echo "metrics --json: a sample that is not a counter" >&2
  exit 1
fi
if ! printf '%s\n' "$out" | grep -q '"metric":"single_shard_txns_total"'; then
  echo "metrics --json: no single_shard_txns_total counter" >&2
  exit 1
fi

# Resource-timeline smoke: sample two techniques through the
# partition-heal scenario; --check exits non-zero if any saturation
# finding falls outside a fault window or the group-stack backlog fails
# to grow during the partition and drain after the heal.
echo "== timeline smoke =="
dune exec bin/replisim.exe -- timeline -t active --check
dune exec bin/replisim.exe -- timeline -t eager-ue-locking --check

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

# Consistency-audit smoke: --check gates the measured form of the §4
# windows (eager: zero session-guarantee window; lazy: strictly positive
# post-commit window, drained by quiescence), plus one sharded run
# exercising the cross-shard snapshot-skew detector end to end.
echo "== consistency audit smoke =="
dune exec bin/replisim.exe -- audit -t active --check > /dev/null
dune exec bin/replisim.exe -- audit -t lazy-primary --check > /dev/null
dune exec bin/replisim.exe -- audit -t active -n 8 --set active.shards=4 \
  --ops 2 --cross 0.3 --check > /dev/null

# JSON outputs pinned: explain, audit (eager and lazy), timeline,
# metrics, the span trace and a crash-recover campaign over every
# technique, each at fixed arguments (ci/json-ci.sh), must be
# byte-identical to the copies in ci/json-expected/.
echo "== JSON outputs pinned =="
rm -rf _json_ci
sh ci/json-ci.sh _json_ci
if ! diff -r ci/json-expected _json_ci; then
  echo "JSON output differs from ci/json-expected/ (diff above); if the" >&2
  echo "change is intended, regenerate with: sh ci/json-ci.sh ci/json-expected" >&2
  exit 1
fi
rm -rf _json_ci

# Sweep + regression gates. The sweep re-runs the committed baseline's
# grid (2 techniques × closed/open load × zipf off/on) with the same
# seeds; records are normalized, so compare against baseline/ must come
# back all-unchanged — any drift in a measured metric beyond the
# per-metric thresholds is a regression and fails the build — and its
# manifest.json must be byte-identical to baseline/manifest.json. The
# --perturb leg injects a 50% latency regression into the candidate set
# and requires the gate to trip, so a silently-passing compare is itself
# caught.
echo "== sweep + regression gates =="
rm -rf _sweep_ci
dune exec bin/replisim.exe -- sweep --techniques active,lazy-primary \
  --loads closed,200 --zipf 0,0.9 --txns 10 --out _sweep_ci \
  --format none 2> /dev/null
dune exec bin/replisim.exe -- compare baseline _sweep_ci
if ! cmp baseline/manifest.json _sweep_ci/manifest.json; then
  echo "sweep: manifest.json differs from baseline/manifest.json" >&2
  exit 1
fi
if dune exec bin/replisim.exe -- compare baseline _sweep_ci \
     --perturb latency_p95:1.5 > /dev/null 2>&1; then
  echo "compare failed to flag an injected 50% latency regression" >&2
  exit 1
fi
rm -rf _sweep_ci
# The same grid with the technique order reversed: every cell runs in
# the same process after different cells than above, and its record must
# still match the baseline with nothing improved or regressed (a cell's
# result may not depend on what ran before it).
dune exec bin/replisim.exe -- sweep --techniques lazy-primary,active \
  --loads closed,200 --zipf 0,0.9 --txns 10 --out _sweep_ci \
  --format none 2> /dev/null
reversed=$(dune exec bin/replisim.exe -- compare baseline _sweep_ci)
printf '%s\n' "$reversed"
if ! printf '%s\n' "$reversed" | grep -q ' 0 improved, 0 regressed, '; then
  echo "reversed sweep: a cell's record depends on the cells run before it" >&2
  exit 1
fi
rm -rf _sweep_ci

# One per-cell run: `run --record` runs its cell as the sweep does
# (sampled every 5 ms, audited, with the probe census), so its record of
# each closed-loop cell in baseline/ is byte-identical to the committed
# one.
echo "== run --record reproduces baseline/ =="
for t in active lazy-primary; do
  for z in 0 0.9; do
    base="baseline/${t}_n-3_m-4_seed-11_keys-100_zipf-${z}_u-0.5_ops-1_txns-10_shards-1_cross-0_closed.json"
    dune exec bin/replisim.exe -- run -t "$t" --txns 10 --zipf "$z" \
      --record - | tail -1 > _record_ci.json
    if ! cmp "$base" _record_ci.json; then
      rm -f _record_ci.json
      echo "run -t $t --zipf $z --record: the record differs from $base" >&2
      exit 1
    fi
  done
done
rm -f _record_ci.json
echo "4 closed-loop baseline cells reproduced"

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

# Bench gates: the bench suite at CI-sized transaction counts in one
# invocation (ci/bench-ci.sh), then two checks on its output. Its
# deterministic part (stdout and BENCH files of every bench but the
# wall-clock perf15) must be byte-identical to the pinned copy in
# ci/bench-expected/, so a change to the bench plumbing or to any
# simulated number shows up as a diff. Every bound is then judged in one
# compare against ci/gates.txt (one line per bound, each with its
# reasoning). A floor is a zero-threshold rule against a baseline
# holding the bound, a ceiling its mirror, and a bench that stops
# emitting a bounded metric fails. The --perturb leg halves perf18's
# cell count in the candidate and requires the gate to trip (exit status
# 1), so a silently-passing gate is itself caught.
echo "== bench gates =="
start=$(date +%s)
rm -rf _bench_ci
sh ci/bench-ci.sh _bench_ci
if ! diff -r ci/bench-expected _bench_ci; then
  echo "bench output differs from ci/bench-expected/ (diff above); if the" >&2
  echo "change is intended, regenerate with: sh ci/bench-ci.sh ci/bench-expected" >&2
  exit 1
fi
rm -rf _bench_ci
benches="BENCH_perf1.json BENCH_perf13.json BENCH_perf14.json
  BENCH_perf15.json BENCH_perf16.json BENCH_perf17.json BENCH_perf18.json
  BENCH_perf19.json"
dune exec bin/replisim.exe -- compare ci/gates.txt $benches
status=0
dune exec bin/replisim.exe -- compare ci/gates.txt $benches \
  --perturb cells:0.5 > /dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
  echo "bench gates: halving perf18's cells gave exit status $status, want 1" >&2
  exit 1
fi
echo "bench gates passed in $(( $(date +%s) - start )) s"

echo "== ci: OK =="
