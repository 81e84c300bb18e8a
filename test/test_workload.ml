(* Tests for the workload library: spec, generator, statistics, and the
   closed-loop runner (incl. determinism and failure schedules). *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

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
  let gen = Workload.Generator.create ~seed:1 spec in
  for _ = 1 to 50 do
    let update, req = Workload.Generator.request gen ~client:7 in
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
  let gen = Workload.Generator.create ~seed:2 spec in
  for _ = 1 to 50 do
    let update, req = Workload.Generator.request gen ~client:1 in
    Alcotest.(check bool) "no updates" false update;
    Alcotest.(check bool) "request is read-only" false
      (Store.Operation.request_is_update req)
  done

let test_generator_ratio_statistics () =
  let spec = { Workload.Spec.default with update_ratio = 0.3 } in
  let gen = Workload.Generator.create ~seed:3 spec in
  let updates = ref 0 in
  for _ = 1 to 1000 do
    let update, _ = Workload.Generator.request gen ~client:1 in
    if update then incr updates
  done;
  Alcotest.(check bool) "≈30% updates" true (!updates > 230 && !updates < 370)

let test_generator_skew () =
  let spec = { Workload.Spec.default with key_skew = 0.99; n_keys = 100 } in
  let gen = Workload.Generator.create ~seed:4 spec in
  let counts = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let _, req = Workload.Generator.request gen ~client:1 in
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

let active_factory net ~replicas ~clients =
  Protocols.Active.create net ~replicas ~clients ()

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
  let fail_early = [ Workload.Runner.crash_at ~at:(Simtime.of_ms 10) 2 ] in
  let smooth = Workload.Runner.run ~seed:5 ~spec:small_spec active_factory in
  let crashed =
    Workload.Runner.run ~seed:5 ~spec:small_spec ~failures:fail_early
      active_factory
  in
  Alcotest.(check int) "still all committed" 40 crashed.Workload.Runner.committed;
  Alcotest.(check bool) "crash visible as a response gap" true
    Simtime.(
      crashed.Workload.Runner.max_response_gap
      > smooth.Workload.Runner.max_response_gap);
  Alcotest.(check bool) "survivors converged" true
    crashed.Workload.Runner.converged

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
  let builder =
    Workload.Builder.make ~seed:21 ~replicas:3 ~clients:2 ~spec:small_spec
      ~profiler ~tracing ()
  in
  let result = Workload.Builder.run builder active_factory in
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
    Workload.Builder.run
      (Workload.Builder.make ~seed:21 ~replicas:3 ~clients:2 ~spec:small_spec ())
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

let test_profile_json_normalized_deterministic () =
  (* Same seed twice: raw profile JSON may differ in timing fields, but
     after normalization the two must be byte-identical. *)
  let json () =
    let _, report = run_profiled () in
    Sim.Profiler.report_to_json report
  in
  let a = json () and b = json () in
  let na = Sim.Profiler.normalize_json a
  and nb = Sim.Profiler.normalize_json b in
  Alcotest.(check string) "normalized profiles byte-identical" na nb;
  (match Workload.Bench_out.parse na with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "normalized profile not valid JSON: %s" e);
  (* Normalization really did clear the wall-derived fields. *)
  List.iter
    (fun field ->
      let re = Printf.sprintf "\"%s\":0" field in
      Alcotest.(check bool) (field ^ " zeroed") true
        (let len = String.length na and plen = String.length re in
         let rec scan i =
           if i + plen > len then false
           else if String.sub na i plen = re then true
           else scan (i + 1)
         in
         scan 0))
    Sim.Profiler.nondeterministic_fields

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
   delivered message over a fixed fault-free lazy-primary run (n=16, 8
   clients x 50 txns, 10% updates, tracing and oracles off), set-up
   included. Every refresh is relayed to all replicas and acked through
   the stubborn channels, so deliveries and their retransmit timers
   dominate. The run is deterministic, so the figure is exact for a
   given compiler: ~50 words with the int-array timer queue, unboxed RNG
   state and int-keyed channel tables, ~85 with a generic heap of timer
   records, a boxed RNG and tuple-keyed tables. The ceiling of 65 sits
   between them. *)
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
  let builder =
    Workload.Builder.make ~seed:11 ~replicas:16 ~clients:8 ~spec
      ~tracing:false ~analyze:false ()
  in
  let factory = Protocols.Registry.default_factory entry in
  let w0 = Gc.minor_words () in
  let result = Workload.Builder.run builder factory in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "fault-free" 0 result.Workload.Runner.dropped;
  let per_msg = words /. float_of_int result.Workload.Runner.messages in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per delivered message <= 65" per_msg)
    true (per_msg <= 65.)

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
          tc "allocation per delivery" test_alloc_per_delivery;
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
          tc "normalized json deterministic"
            test_profile_json_normalized_deterministic;
        ] );
    ]
