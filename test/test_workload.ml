(* Tests for the workload library: spec, generator, statistics, and the
   closed-loop runner (incl. determinism and failure schedules). *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

(* A network to number generated requests; nothing is sent on it. *)
let rid_source () = Network.create (Engine.create ()) ~n:1 Network.default_config

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_respects_spec () =
  let spec =
    {
      Workload.Spec.default with
      n_keys = 10;
      ops_per_txn = 3;
      update_ratio = 1.0;
    }
  in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:1 spec in
  for _ = 1 to 50 do
    let update, req = Workload.Generator.request gen net ~client:7 in
    Alcotest.(check bool) "all updates at ratio 1.0" true update;
    Alcotest.(check int) "ops per txn" 3 (List.length req.Store.Operation.ops);
    Alcotest.(check int) "client" 7 req.Store.Operation.client;
    List.iter
      (fun op ->
        match op with
        | Store.Operation.Incr (k, 1) ->
            let idx = int_of_string (String.sub k 1 (String.length k - 1)) in
            Alcotest.(check bool) "key in range" true (idx >= 0 && idx < 10)
        | _ -> Alcotest.fail "update mix must produce Incr operations")
      req.Store.Operation.ops
  done

let test_generator_read_only_mix () =
  let spec = { Workload.Spec.default with update_ratio = 0.0 } in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:2 spec in
  for _ = 1 to 50 do
    let update, req = Workload.Generator.request gen net ~client:1 in
    Alcotest.(check bool) "no updates" false update;
    Alcotest.(check bool) "request is read-only" false
      (Store.Operation.request_is_update req)
  done

let test_generator_ratio_statistics () =
  let spec = { Workload.Spec.default with update_ratio = 0.3 } in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:3 spec in
  let updates = ref 0 in
  for _ = 1 to 1000 do
    let update, _ = Workload.Generator.request gen net ~client:1 in
    if update then incr updates
  done;
  Alcotest.(check bool) "≈30% updates" true (!updates > 230 && !updates < 370)

let test_generator_skew () =
  let spec = { Workload.Spec.default with key_skew = 0.99; n_keys = 100 } in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:4 spec in
  let counts = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let _, req = Workload.Generator.request gen net ~client:1 in
    List.iter
      (fun op ->
        List.iter
          (fun k ->
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          (Store.Operation.read_keys op @ Store.Operation.write_keys op))
      req.Store.Operation.ops
  done;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool) "hot key dominates" true (hottest > 100)

(* ------------------------------------------------------------------ *)
(* Summary statistics                                                 *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Sim.Summary.summarize [] in
  Alcotest.(check int) "count" 0 s.Sim.Summary.count

let test_stats_known_values () =
  let values = List.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Sim.Summary.summarize values in
  Alcotest.(check int) "count" 100 s.Sim.Summary.count;
  Alcotest.(check (float 0.001)) "mean" 50.5 s.Sim.Summary.mean;
  Alcotest.(check (float 1.5)) "p50" 50.0 s.Sim.Summary.p50;
  Alcotest.(check (float 1.5)) "p90" 90.0 s.Sim.Summary.p90;
  Alcotest.(check (float 1.5)) "p99" 99.0 s.Sim.Summary.p99;
  Alcotest.(check (float 0.001)) "min" 1.0 s.Sim.Summary.min;
  Alcotest.(check (float 0.001)) "max" 100.0 s.Sim.Summary.max

let test_stats_order_independent () =
  let a = Sim.Summary.summarize [ 3.; 1.; 2. ] in
  let b = Sim.Summary.summarize [ 1.; 2.; 3. ] in
  Alcotest.(check (float 0.001)) "same p50" a.Sim.Summary.p50 b.Sim.Summary.p50

(* ------------------------------------------------------------------ *)
(* Runner                                                             *)
(* ------------------------------------------------------------------ *)

let active_factory =
  Protocols.Registry.default_factory
    (Option.get (Protocols.Registry.find "active"))

let small_spec = { Workload.Spec.default with txns_per_client = 10 }

let test_runner_completes () =
  let result =
    Workload.Runner.run ~n_clients:2 ~spec:small_spec active_factory
  in
  Alcotest.(check int) "all committed" 20 result.Workload.Runner.committed;
  Alcotest.(check int) "no aborts" 0 result.Workload.Runner.aborted;
  Alcotest.(check int) "all answered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "converged" true result.Workload.Runner.converged;
  Alcotest.(check bool) "serializable" true result.Workload.Runner.serializable;
  Alcotest.(check bool) "throughput positive" true
    (result.Workload.Runner.throughput > 0.);
  Alcotest.(check int) "latency count = committed" 20
    result.Workload.Runner.latency_ms.Sim.Summary.count

(* The registry's transaction counters tell the same story as the
   runner's result, for every technique on a fault-free unsharded run:
   every submission is answered with one commit or abort reply, or is
   left unanswered. *)
let test_counters_match_result () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let spec = Workload.Builder.spec ~txns:30 () in
      let r, inst =
        Workload.Runner.run_with_instance ~seed:11 ~spec
          (Protocols.Registry.default_factory e)
      in
      let sum name =
        Protocols.Common.sum_replica_counter inst name
          inst.Core.Technique.replicas
      in
      let key = e.Protocols.Registry.key in
      Alcotest.(check int) (key ^ " committed") r.Workload.Runner.committed
        (sum "txn_committed_total");
      Alcotest.(check int) (key ^ " aborted") r.Workload.Runner.aborted
        (sum "txn_aborted_total");
      Alcotest.(check int) (key ^ " submitted")
        (r.Workload.Runner.committed + r.Workload.Runner.aborted
       + r.Workload.Runner.unanswered)
        (Sim.Metrics.counter inst.Core.Technique.metrics "txn_submitted_total"))
    Protocols.Registry.all

(* Every field except wall-clock time is deterministic per seed; zero
   the one nondeterministic field before structural comparison. *)
let zero_wall (r : Workload.Runner.result) = { r with wall_s = 0. }

let test_runner_deterministic () =
  let run () = Workload.Runner.run ~seed:77 ~spec:small_spec active_factory in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical results for identical seeds" true
    (zero_wall a = zero_wall b);
  let c = Workload.Runner.run ~seed:78 ~spec:small_spec active_factory in
  Alcotest.(check bool) "different seed differs" true
    (a.Workload.Runner.latency_ms <> c.Workload.Runner.latency_ms)

let test_runner_failure_schedule () =
  let fail_early =
    [ Workload.Runner.Crash { at = Simtime.of_ms 10; replica = 2 } ]
  in
  let smooth = Workload.Runner.run ~seed:5 ~spec:small_spec active_factory in
  let crashed =
    Workload.Runner.run ~seed:5 ~spec:small_spec ~faults:fail_early
      active_factory
  in
  Alcotest.(check int) "still all committed" 40 crashed.Workload.Runner.committed;
  Alcotest.(check bool) "crash visible as a response gap" true
    Simtime.(
      crashed.Workload.Runner.max_response_gap
      > smooth.Workload.Runner.max_response_gap);
  Alcotest.(check bool) "survivors converged" true
    crashed.Workload.Runner.converged;
  (* The command-line schedule: events are range-checked against the
     replica count (ids from n on are clients) before pairing. *)
  let schedule ?(recoveries = []) crashes =
    Workload.Builder.crash_schedule ~n:3
      ~crashes:(List.map (fun (r, ms) -> (r, Simtime.of_ms ms)) crashes)
      ~recoveries:(List.map (fun (r, ms) -> (r, Simtime.of_ms ms)) recoveries)
  in
  let rejects label ~flag r =
    match r with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names %s (%s)" label flag msg)
          true
          (String.starts_with ~prefix:flag msg)
  in
  (match schedule [ (2, 10) ] ~recoveries:[ (2, 20) ] with
  | Ok [ Workload.Runner.Crash c; Workload.Runner.Recover r ] ->
      Alcotest.(check (pair int int)) "crash then recovery" (2, 20_000)
        (c.replica, Simtime.to_us r.at)
  | _ -> Alcotest.fail "valid schedule rejected");
  rejects "client id" ~flag:"--crash 3@" (schedule [ (3, 10) ]);
  rejects "beyond the network" ~flag:"--crash 7@" (schedule [ (7, 10) ]);
  rejects "negative time" ~flag:"--crash 0@" (schedule [ (0, -5) ]);
  rejects "recovery of a client" ~flag:"--recover 4@"
    (schedule [ (0, 10) ] ~recoveries:[ (4, 20) ]);
  rejects "negative recovery time" ~flag:"--recover 0@"
    (schedule [ (0, 10) ] ~recoveries:[ (0, -1) ]);
  rejects "unpaired recovery" ~flag:"--recover 1@"
    (schedule [ (0, 10) ] ~recoveries:[ (1, 20) ]);
  rejects "recovery before its crash" ~flag:"--recover 0@"
    (schedule [ (0, 30) ] ~recoveries:[ (0, 20) ]);
  rejects "second recovery of one crash" ~flag:"--recover 0@"
    (schedule [ (0, 10) ] ~recoveries:[ (0, 20); (0, 30) ]);
  (* Scenario inputs: the same check over a whole fault list. The
     builtins fit the three-replica campaign cluster; on a smaller one
     the fault that names a client is the one reported. *)
  let scenario name = (Option.get (Workload.Scenario.find name)).events in
  List.iter
    (fun (s : Workload.Scenario.t) ->
      Alcotest.(check bool) (s.name ^ " fits 3 replicas") true
        (Workload.Runner.check_faults ~n_replicas:3 s.events = Ok ()))
    Workload.Scenario.builtins;
  let rejected label ~n events expect =
    match Workload.Runner.check_faults ~n_replicas:n events with
    | Ok () -> Alcotest.failf "%s: accepted" label
    | Error (f, _) ->
        Alcotest.(check string) label expect
          (Format.asprintf "%a" Workload.Runner.pp_fault f)
  in
  rejected "backup-crash-recover, 2 replicas" ~n:2
    (scenario "backup-crash-recover") "crash 2@100ms";
  rejected "partition-heal, 1 replica" ~n:1 (scenario "partition-heal")
    "partition [2] 50ms..600ms";
  rejected "chaos, 1 replica" ~n:1 (scenario "chaos") "crash 1@100ms";
  rejected "negative loss window" ~n:3
    [
      Workload.Runner.Loss
        { at = Simtime.of_ms (-1); probability = 0.1; until = Simtime.of_ms 5 };
    ]
    "loss 0.1 -1ms..5ms";
  rejected "recovery with no crash" ~n:3
    [ Workload.Runner.Recover { at = Simtime.of_ms 5; replica = 1 } ]
    "recover 1@5ms";
  (* The runner refuses a list that fails the check before it runs. *)
  match
    Workload.Runner.run ~n_replicas:2 ~spec:small_spec
      ~faults:(scenario "backup-crash-recover") active_factory
  with
  | _ -> Alcotest.fail "run accepted a fault on a client"
  | exception Invalid_argument _ -> ()

let test_runner_latency_split () =
  let spec = { small_spec with update_ratio = 0.5 } in
  let result = Workload.Runner.run ~n_clients:2 ~spec active_factory in
  let r = result.Workload.Runner.read_latency_ms.Sim.Summary.count in
  let u = result.Workload.Runner.update_latency_ms.Sim.Summary.count in
  Alcotest.(check int) "read+update = committed" result.Workload.Runner.committed
    (r + u);
  Alcotest.(check bool) "both kinds present" true (r > 0 && u > 0)


(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_csv () =
  let result = Workload.Runner.run ~n_clients:1 ~spec:small_spec active_factory in
  let header_cols = String.split_on_char ',' Workload.Report.csv_header in
  let row = Workload.Report.csv_row ~label:"test" result in
  let row_cols = String.split_on_char ',' row in
  Alcotest.(check int) "row matches header arity" (List.length header_cols)
    (List.length row_cols);
  Alcotest.(check string) "label first" "test" (List.hd row_cols);
  Alcotest.(check string) "committed column" "10" (List.nth row_cols 1);
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Workload.Report.to_csv ppf [ ("a", result); ("b", result) ];
  Format.pp_print_flush ppf ();
  Alcotest.(check int) "header + two rows" 3
    (List.length
       (List.filter
          (fun l -> String.length l > 0)
          (String.split_on_char '\n' (Buffer.contents buf))))


let test_runner_poisson_arrivals () =
  (* Open-loop submission: all transactions go out regardless of replies,
     and all are eventually answered. *)
  let result =
    Workload.Runner.run ~n_clients:2 ~spec:small_spec
      ~arrival:(`Poisson 200.) active_factory
  in
  Alcotest.(check int) "all committed" 20 result.Workload.Runner.committed;
  Alcotest.(check int) "none unanswered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "converged" true result.Workload.Runner.converged;
  (* Same seed, same arrival process: deterministic too. *)
  let again =
    Workload.Runner.run ~n_clients:2 ~spec:small_spec
      ~arrival:(`Poisson 200.) active_factory
  in
  Alcotest.(check bool) "deterministic" true (zero_wall result = zero_wall again)

(* ------------------------------------------------------------------ *)
(* Profiler integration                                               *)
(* ------------------------------------------------------------------ *)

let run_profiled ?(tracing = true) () =
  let profiler = Sim.Profiler.create () in
  let result =
    Workload.Runner.run ~seed:21 ~n_replicas:3 ~n_clients:2 ~spec:small_spec
      ~profiler ~tracing active_factory
  in
  (result, Sim.Profiler.report profiler)

let test_profiler_counters_match () =
  let result, report = run_profiled () in
  (* The deterministic counters the profiler carries are the engine's. *)
  Alcotest.(check int) "events = result.events" result.Workload.Runner.events
    report.Sim.Profiler.p_events;
  (* Every executed event was dispatched through exactly one labelled
     bucket, so the independently-accumulated per-bucket counts must sum
     back to the engine's total. *)
  let bucket_events =
    List.fold_left
      (fun acc (r : Sim.Profiler.row) -> acc + r.Sim.Profiler.r_events)
      0 report.Sim.Profiler.p_buckets
  in
  Alcotest.(check int) "bucket events sum to events executed"
    report.Sim.Profiler.p_events bucket_events;
  Alcotest.(check bool) "scheduled >= executed" true
    (report.Sim.Profiler.p_scheduled >= report.Sim.Profiler.p_events);
  Alcotest.(check bool) "queue peak positive" true
    (report.Sim.Profiler.p_queue_peak > 0);
  Alcotest.(check bool) "spans recorded with tracing on" true
    (report.Sim.Profiler.p_spans_created > 0)

let test_profiler_gc_accounting () =
  let _, report = run_profiled () in
  (* Gc-delta attribution: no bucket may go negative, and the per-bucket
     deltas must sum to the profiler's total (same additions, grouped). *)
  List.iter
    (fun (r : Sim.Profiler.row) ->
      Alcotest.(check bool)
        (r.Sim.Profiler.r_label ^ " alloc non-negative")
        true
        (r.Sim.Profiler.r_alloc_w >= 0.);
      Alcotest.(check bool)
        (r.Sim.Profiler.r_label ^ " wall non-negative")
        true
        (r.Sim.Profiler.r_wall_ms >= 0.))
    report.Sim.Profiler.p_buckets;
  let bucket_alloc =
    List.fold_left
      (fun acc (r : Sim.Profiler.row) -> acc +. r.Sim.Profiler.r_alloc_w)
      0. report.Sim.Profiler.p_buckets
  in
  let total = report.Sim.Profiler.p_alloc_words in
  Alcotest.(check bool) "bucket alloc sums to total" true
    (abs_float (bucket_alloc -. total) <= 1e-6 *. (1. +. total));
  (* Shares over any measured quantity sum to ~1. *)
  let share_sum f =
    List.fold_left (fun acc r -> acc +. f r) 0. report.Sim.Profiler.p_buckets
  in
  if total > 0. then
    Alcotest.(check (float 0.001)) "alloc shares sum to 1" 1.
      (share_sum (fun r -> r.Sim.Profiler.r_alloc_share))

let test_profiler_disabled_identical () =
  (* Attaching no profiler must not perturb the simulation: same seed
     with and without one agrees on every deterministic field. *)
  let bare =
    Workload.Runner.run ~seed:21 ~n_replicas:3 ~n_clients:2 ~spec:small_spec
      active_factory
  in
  let profiled, _ = run_profiled () in
  Alcotest.(check bool) "profiler leaves results identical" true
    (zero_wall bare = zero_wall profiled)

let test_tracing_off_preserves_schedule () =
  (* The tracing gate only suppresses span materialisation — it must not
     change what the simulation computes. Span-derived fields (phase_ms,
     span metrics) legitimately differ; everything the paper's numbers
     come from must not. *)
  let on, on_rep = run_profiled ~tracing:true () in
  let off, off_rep = run_profiled ~tracing:false () in
  Alcotest.(check int) "committed" on.Workload.Runner.committed
    off.Workload.Runner.committed;
  Alcotest.(check int) "messages" on.Workload.Runner.messages
    off.Workload.Runner.messages;
  Alcotest.(check int) "events executed" on.Workload.Runner.events
    off.Workload.Runner.events;
  Alcotest.(check bool) "latencies identical" true
    (on.Workload.Runner.latency_ms = off.Workload.Runner.latency_ms);
  Alcotest.(check int) "no spans with tracing off" 0
    off_rep.Sim.Profiler.p_spans_created;
  Alcotest.(check bool) "spans with tracing on" true
    (on_rep.Sim.Profiler.p_spans_created > 0)

(* A run with tracing off records nothing, so its span collector holds
   no span storage: it is as small as a fresh one, and a fresh one holds
   no columns (a few dozen words of record and trace table). *)
let test_tracing_off_no_span_storage () =
  let _, inst =
    Workload.Runner.run_with_instance ~seed:21 ~n_replicas:3 ~n_clients:2
      ~spec:small_spec ~tracing:false active_factory
  in
  let collector = Core.Phase_span.collector inst.Core.Technique.spans in
  let fresh = Obj.reachable_words (Obj.repr (Sim.Span.create ())) in
  Alcotest.(check int) "no spans" 0 (Sim.Span.count collector);
  Alcotest.(check int) "words held" fresh (Obj.reachable_words (Obj.repr collector));
  if fresh > 64 then Alcotest.failf "a fresh collector holds %d words" fresh

let test_profile_json_normalized_deterministic () =
  (* Same seed twice: raw profiles may differ in timing fields, but
     after normalization the two encode byte-identically. *)
  let json () =
    let _, report = run_profiled () in
    Sim.Profiler.report_to_json (Sim.Profiler.normalize report)
  in
  let a = json () and b = json () in
  Alcotest.(check string) "normalized profiles byte-identical" a b;
  match Sim.Json.parse a with
  | Ok doc ->
      Alcotest.(check bool) "wall_ms zeroed" true
        (Sim.Json.member "wall_ms" doc = Some (Sim.Json.Num 0.))
  | Error e -> Alcotest.failf "normalized profile not valid JSON: %s" e

let test_engine_summary_wall () =
  let result, _ = run_profiled () in
  let with_wall = { result with Workload.Runner.wall_s = 2.0; events = 1000 } in
  Alcotest.(check string) "events/s summary"
    "1000 events in 2.000 s wall (500 events/s)"
    (Workload.Report.engine_summary with_wall);
  let no_wall = { result with Workload.Runner.wall_s = 0.; events = 42 } in
  Alcotest.(check string) "n/a on zero wall" "42 events (wall n/a)"
    (Workload.Report.engine_summary no_wall)

(* The per-phase summary is collected online as spans close; it must
   equal the post-hoc summary over every rid's span durations. *)
let test_runner_phase_ms_online () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let result, inst =
        Workload.Runner.run_with_instance ~seed:11 ~n_clients:2
          ~spec:small_spec
          (Protocols.Registry.default_factory e)
      in
      let spans = inst.Core.Technique.spans in
      let durations =
        List.concat_map
          (fun rid -> Core.Phase_span.durations spans ~rid)
          (Core.Phase_span.rids spans)
      in
      let expected =
        List.filter_map
          (fun p ->
            match
              List.filter_map
                (fun (q, d) -> if Core.Phase.equal p q then Some d else None)
                durations
            with
            | [] -> None
            | ds -> Some (p, Sim.Summary.summarize ds))
          Core.Phase.all
      in
      Alcotest.(check bool)
        (e.Protocols.Registry.key ^ ": phase_ms = summary of durations")
        true
        (expected <> [] && result.Workload.Runner.phase_ms = expected))
    Protocols.Registry.all

(* Allocation guard on the delivery path: minor-heap words allocated per
   transaction over a fixed fault-free lazy-primary run (n=16, 8 clients
   x 50 txns, 10% updates, tracing and oracles off), set-up included.
   Each refresh goes to the 15 others and is acked through the stubborn
   channels. The run is deterministic, so the figure is exact for a
   given compiler: ~760 words with the int-array timer queue, unboxed
   RNG state and int-keyed channel tables; those costing ~35 words more
   per message (a generic heap of timer records, a boxed RNG and
   tuple-keyed tables) would add ~215. The ceiling of 900 sits between
   them, far below the ~2 340 of reliable broadcast relaying every
   delivery. Per delivered message the run reads ~123 words, because
   the cheap relay deliveries that once diluted it are gone. *)
let test_alloc_per_delivery () =
  let entry = Option.get (Protocols.Registry.find "lazy-primary") in
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 0.1;
      txns_per_client = 50;
      n_keys = 1_000;
    }
  in
  let factory = Protocols.Registry.default_factory entry in
  let w0 = Gc.minor_words () in
  let result =
    Workload.Runner.run ~seed:11 ~n_replicas:16 ~n_clients:8 ~spec
      ~tracing:false ~analyze:false factory
  in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "fault-free" 0 result.Workload.Runner.dropped;
  let per_txn =
    words
    /. float_of_int
         (result.Workload.Runner.committed + result.Workload.Runner.aborted)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per transaction <= 900" per_txn)
    true (per_txn <= 900.)

(* Timers cancelled per message sent on fault-free, non-passthrough runs:
   lazy-primary at n=16 (the refresh path over reliable FIFO broadcast)
   and eager-ue-abcast at n=3 (the sequencer's atomic broadcast). With a
   retransmit timer per message, every acked send cancelled one: ~0.50
   per message sent on lazy-primary and ~0.2 on eager-ue-abcast. With one
   timer per channel endpoint, a timer is cancelled only when an ack
   leaves the endpoint's oldest message acked before it was due and a
   new head must be armed: ~0.11 and ~0.04 (lazy-primary read ~0.075
   while reliable broadcast relayed every delivery, whose acks seldom
   hit a head). The ceiling of 0.15 sits between them. *)
let test_rchan_timers_per_message () =
  List.iter
    (fun (key, n) ->
      let entry = Option.get (Protocols.Registry.find key) in
      let net = ref None in
      let result =
        Workload.Runner.run ~seed:11 ~n_replicas:n ~n_clients:8
          ~spec:Workload.Spec.default ~tracing:false ~analyze:false
          ~tune:(fun nw ~replicas:_ ~clients:_ -> net := Some nw)
          (Protocols.Registry.default_factory entry)
      in
      let net = Option.get !net in
      Alcotest.(check int)
        (key ^ " fault-free") 0 result.Workload.Runner.dropped;
      let ratio =
        float_of_int (Engine.timers_cancelled (Network.engine net))
        /. float_of_int (Network.messages_sent net)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f timers cancelled per message <= 0.15" key
           ratio)
        true (ratio <= 0.15))
    [ ("lazy-primary", 16); ("eager-ue-abcast", 3) ]

(* The schedules of both techniques that order through the sequencer's
   atomic broadcast, pinned: certification at n=5 on a contended
   multi-op mix, and eager-ue-abcast at n=3 through two crash-and-loss
   cycles (each crashes the leader of the moment, so both take over).
   A change to Abcast_seq's bookkeeping must leave every event and
   message where it was. *)
let test_abcast_schedules_pinned () =
  let ms = Simtime.of_ms in
  let cycle i =
    let t0 = 200 + (500 * i) and replica = i mod 3 in
    Workload.Runner.
      [
        Crash { at = ms t0; replica };
        Recover { at = ms (t0 + 150); replica };
        Loss { at = ms (t0 + 250); probability = 0.2; until = ms (t0 + 350) };
      ]
  in
  List.iter
    (fun (key, n, spec, faults, expect) ->
      let entry = Option.get (Protocols.Registry.find key) in
      let r =
        Workload.Runner.run ~seed:11 ~n_replicas:n ~n_clients:8 ~spec ~faults
          ~deadline:(Simtime.of_sec 20.) ~tracing:false ~analyze:false
          (Protocols.Registry.default_factory entry)
      in
      if faults <> [] then
        Alcotest.(check bool)
          (key ^ ": runs past the second cycle's loss window")
          true
          (Simtime.to_ms r.Workload.Runner.makespan > 1_050.);
      Alcotest.(check (list int))
        (key ^ ": committed, aborted, events, messages")
        expect
        [ r.Workload.Runner.committed; r.aborted; r.events; r.messages ])
    [
      ( "certification",
        5,
        {
          Workload.Spec.default with
          key_skew = 0.9;
          ops_per_txn = 4;
          update_ratio = 0.5;
          txns_per_client = 60;
        },
        [],
        [ 289; 191; 90060; 68120 ] );
      ( "eager-ue-abcast",
        3,
        {
          Workload.Spec.default with
          key_skew = 0.9;
          update_ratio = 0.2;
          txns_per_client = 300;
        },
        cycle 0 @ cycle 1,
        [ 2400; 0; 114394; 96506 ] );
    ]

(* ---- one run, one world --------------------------------------------- *)

(* A run owns everything it allocates: once a run returns and its result
   is dropped, nothing of it stays reachable. Twenty back-to-back runs of
   every technique must leave the live heap where the first one left it
   (instances kept in process-wide tables grew it by ~13-17k words over
   twenty runs of lazy-ue or certification; the others stay within a few
   dozen words). *)
let test_back_to_back_runs_keep_heap_flat () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let spec = Workload.Builder.spec ~txns:5 () in
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let run () =
        ignore
          (Workload.Runner.run ~seed:11 ~n_replicas:3 ~n_clients:2 ~spec
             (Protocols.Registry.default_factory e))
      in
      run ();
      let first = live_words () in
      for _ = 2 to 20 do
        run ()
      done;
      let grown = live_words () - first in
      Alcotest.(check bool)
        (Printf.sprintf "%s: live heap grew %d words over 20 runs (<= 1000)"
           e.Protocols.Registry.key grown)
        true (grown <= 1000))
    Protocols.Registry.all

(* A run's ids come from its own network, so the same traced probe run
   twice in one process exports the same bytes, rids included. *)
let test_same_probe_same_trace () =
  let export () =
    let entry = Option.get (Protocols.Registry.find "active") in
    let p = Workload.Builder.probe (Protocols.Registry.default_factory entry) in
    Sim.Trace_export.to_chrome
      (Core.Phase_span.collector p.Workload.Builder.p_inst.Core.Technique.spans)
  in
  let first = export () in
  Alcotest.(check string) "second probe exports the same bytes" first (export ())

(* The profile self-check on live reports, and on a report whose bucket
   events no longer add up. With tracing on, the trace export is priced
   the way `replisim profile` prices it: an off-loop bucket the
   executed-events identity leaves out. *)
let test_profile_verdicts () =
  let oracles_ok report =
    List.map
      (fun (v : Workload.Verdict.t) -> (v.oracle, v.ok))
      (Workload.Builder.profile_verdicts report)
  in
  let all_ok =
    [
      ("json", true);
      ("bucket_events", true);
      ("wall_shares", true);
      ("alloc_shares", true);
    ]
  in
  List.iter
    (fun tracing ->
      let profiler = Sim.Profiler.create () in
      let _, inst =
        Workload.Runner.run_with_instance ~seed:21 ~n_replicas:3 ~n_clients:2
          ~spec:small_spec ~profiler ~tracing active_factory
      in
      if tracing then
        ignore
          (Sim.Profiler.measure profiler ~label:"trace:export" (fun () ->
               Sim.Trace_export.to_jsonl
                 (Core.Phase_span.collector inst.Core.Technique.spans)));
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "live report, tracing %b" tracing)
        all_ok
        (oracles_ok (Sim.Profiler.report profiler)))
    [ true; false ];
  let _, report = run_profiled () in
  let broken =
    match report.Sim.Profiler.p_buckets with
    | b :: rest ->
        { report with p_buckets = { b with r_events = b.r_events + 1 } :: rest }
    | [] -> Alcotest.fail "no bucket"
  in
  Alcotest.(check (list string))
    "one bucket's events changed" [ "bucket_events" ]
    (List.map
       (fun (v : Workload.Verdict.t) -> v.oracle)
       (Workload.Verdict.failed (Workload.Builder.profile_verdicts broken)))

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          tc "respects spec" test_generator_respects_spec;
          tc "read-only mix" test_generator_read_only_mix;
          tc "ratio statistics" test_generator_ratio_statistics;
          tc "zipf skew" test_generator_skew;
        ] );
      ( "stats",
        [
          tc "empty" test_stats_empty;
          tc "known values" test_stats_known_values;
          tc "order independent" test_stats_order_independent;
        ] );
      ( "runner",
        [
          tc "completes" test_runner_completes;
          tc "deterministic" test_runner_deterministic;
          tc "failure schedule" test_runner_failure_schedule;
          tc "latency split" test_runner_latency_split;
          tc "poisson arrivals" test_runner_poisson_arrivals;
          tc "phase summary online" test_runner_phase_ms_online;
          tc "counters match result" test_counters_match_result;
          tc "allocation per delivery" test_alloc_per_delivery;
          tc "rchan timers per message" test_rchan_timers_per_message;
          tc "abcast schedules pinned" test_abcast_schedules_pinned;
        ] );
      ( "per-run world",
        [
          tc "back-to-back runs keep the heap flat"
            test_back_to_back_runs_keep_heap_flat;
          tc "same probe, same trace bytes" test_same_probe_same_trace;
        ] );
      ( "report",
        [ tc "csv" test_report_csv; tc "engine summary" test_engine_summary_wall ]
      );
      ( "profiler",
        [
          tc "counters match engine" test_profiler_counters_match;
          tc "gc accounting" test_profiler_gc_accounting;
          tc "disabled is identical" test_profiler_disabled_identical;
          tc "tracing off preserves schedule" test_tracing_off_preserves_schedule;
          tc "tracing off holds no span storage" test_tracing_off_no_span_storage;
          tc "normalized json deterministic"
            test_profile_json_normalized_deterministic;
          tc "profile --check verdicts" test_profile_verdicts;
        ] );
    ]
