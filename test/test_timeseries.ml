(* Tests for the sampled time-series subsystem: sampler determinism,
   point ordering, saturation detectors, the shared summary edge cases,
   and the 2PC in-doubt gauge under a coordinator crash. *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

let factory key =
  Protocols.Registry.default_factory (Option.get (Protocols.Registry.find key))

let locking_factory = factory "eager-ue-locking"
let certification_factory = factory "certification"

let small_spec =
  {
    Workload.Spec.default with
    update_ratio = 1.0;
    txns_per_client = 10;
    think_time = Simtime.of_ms 2;
  }

let sampled_run ?(seed = 11) ?faults factory =
  Workload.Runner.run ~seed ?faults ~n_clients:2 ~spec:small_spec
    ~sample:(Simtime.of_ms 5)
    ~deadline:(Simtime.of_sec 5.) factory

(* ------------------------------------------------------------------ *)
(* Sampler                                                            *)
(* ------------------------------------------------------------------ *)

let test_sampler_determinism () =
  let render (r : Workload.Runner.result) =
    String.concat "\n"
      (List.map Timeseries.series_to_json r.Workload.Runner.series)
  in
  let a = render (sampled_run certification_factory) in
  let b = render (sampled_run certification_factory) in
  Alcotest.(check bool) "series non-empty" true (String.length a > 0);
  Alcotest.(check string) "same seed, byte-identical series" a b

let test_points_monotonic () =
  let result = sampled_run locking_factory in
  Alcotest.(check bool) "some series sampled" true
    (result.Workload.Runner.series <> []);
  List.iter
    (fun (s : Timeseries.series) ->
      let pts = Timeseries.points s in
      Alcotest.(check int)
        (s.Timeseries.name ^ " n_points consistent")
        (List.length pts) s.Timeseries.n_points;
      ignore
        (List.fold_left
           (fun prev (p : Timeseries.point) ->
             (match prev with
             | Some (at : Simtime.t) ->
                 Alcotest.(check bool)
                   (s.Timeseries.name ^ " strictly increasing sim time")
                   true
                   Simtime.(p.Timeseries.at > at)
             | None -> ());
             Some p.Timeseries.at)
           None pts))
    result.Workload.Runner.series

let test_duplicate_registration_sums () =
  let engine = Engine.create ~seed:1 () in
  let ts = Timeseries.create ~interval:(Simtime.of_ms 1) engine in
  Timeseries.register ts ~name:"g" ~replica:0 ~kind:Timeseries.Level (fun () ->
      1.);
  Timeseries.register ts ~name:"g" ~replica:0 ~kind:Timeseries.Level (fun () ->
      2.);
  ignore (Engine.run ~until:(Simtime.of_ms 3) engine);
  match Timeseries.find ts ~name:"g" ~replica:0 with
  | None -> Alcotest.fail "series missing"
  | Some s ->
      Alcotest.(check int) "one series" 1 (List.length (Timeseries.series ts));
      List.iter
        (fun (p : Timeseries.point) ->
          Alcotest.(check (float 0.0)) "thunks summed" 3. p.Timeseries.value)
        (Timeseries.points s)

(* ------------------------------------------------------------------ *)
(* Saturation detectors (synthetic series)                            *)
(* ------------------------------------------------------------------ *)

let synthetic ~kind values =
  let points_rev =
    List.rev
      (List.mapi
         (fun i v -> { Timeseries.at = Simtime.of_ms (5 * i); value = v })
         values)
  in
  {
    Timeseries.name = "synthetic";
    replica = 0;
    kind;
    unit_ = "count";
    points_rev;
    n_points = List.length values;
    thunks = [];
  }

let detectors findings = List.map (fun f -> f.Saturation.detector) findings

let test_queue_growth_detector () =
  (* 12 monotonically growing samples, net rise 11: fires. *)
  let growing =
    synthetic ~kind:Timeseries.Queue (List.init 12 float_of_int)
  in
  Alcotest.(check (list string))
    "sustained growth fires" [ "queue_growth" ]
    (detectors (Saturation.analyze [ growing ]));
  (* A short burst that drains: stays quiet. *)
  let burst =
    synthetic ~kind:Timeseries.Queue [ 0.; 4.; 8.; 6.; 2.; 0.; 0.; 0. ]
  in
  Alcotest.(check (list string))
    "draining burst is quiet" []
    (detectors (Saturation.analyze [ burst ]));
  (* The same growth on a Level series is ignored (monotone by design). *)
  let level = synthetic ~kind:Timeseries.Level (List.init 12 float_of_int) in
  Alcotest.(check (list string))
    "level series ignored" []
    (detectors (Saturation.analyze [ level ]))

let test_waiter_convoy_detector () =
  let convoy =
    synthetic ~kind:Timeseries.Waiters (List.init 12 (fun _ -> 3.))
  in
  Alcotest.(check (list string))
    "sustained waiters fire" [ "waiter_convoy" ]
    (detectors (Saturation.analyze [ convoy ]));
  let brief = synthetic ~kind:Timeseries.Waiters [ 0.; 3.; 3.; 0.; 0. ] in
  Alcotest.(check (list string))
    "brief wait is quiet" []
    (detectors (Saturation.analyze [ brief ]))

let test_window_overrun_detector () =
  (* Positive for 250ms of 5ms samples: over the 200ms budget. *)
  let stuck = synthetic ~kind:Timeseries.Window (List.init 51 (fun _ -> 1.)) in
  Alcotest.(check (list string))
    "overlong in-doubt fires" [ "window_overrun" ]
    (detectors (Saturation.analyze [ stuck ]));
  let quick = synthetic ~kind:Timeseries.Window [ 0.; 1.; 1.; 0.; 0. ] in
  Alcotest.(check (list string))
    "round-trip-sized window is quiet" []
    (detectors (Saturation.analyze [ quick ]))

(* ------------------------------------------------------------------ *)
(* Shared summary edge cases                                          *)
(* ------------------------------------------------------------------ *)

let finite f = Float.is_finite f

let test_summary_empty () =
  let s = Sim.Summary.summarize [] in
  Alcotest.(check int) "count sentinel" 0 s.Sim.Summary.count;
  List.iter
    (fun (label, v) ->
      Alcotest.(check bool) (label ^ " finite") true (finite v))
    [
      ("mean", s.Sim.Summary.mean);
      ("p50", s.Sim.Summary.p50);
      ("p99", s.Sim.Summary.p99);
      ("min", s.Sim.Summary.min);
      ("max", s.Sim.Summary.max);
    ];
  Alcotest.(check bool) "empty agrees" true (Sim.Summary.empty = s)

let test_summary_single_sample () =
  let s = Sim.Summary.summarize [ 42. ] in
  Alcotest.(check int) "count" 1 s.Sim.Summary.count;
  List.iter
    (fun (label, v) ->
      Alcotest.(check (float 0.0)) label 42. v)
    [
      ("mean", s.Sim.Summary.mean);
      ("p50", s.Sim.Summary.p50);
      ("p90", s.Sim.Summary.p90);
      ("p95", s.Sim.Summary.p95);
      ("p99", s.Sim.Summary.p99);
      ("min", s.Sim.Summary.min);
      ("max", s.Sim.Summary.max);
    ]

(* ------------------------------------------------------------------ *)
(* 2PC in-doubt gauge under a coordinator crash                       *)
(* ------------------------------------------------------------------ *)

let test_in_doubt_rises_and_clears () =
  (* Crash replica 0 mid-run with update traffic in flight: some
     participant is left in doubt (prepared, no decision) until the
     coordinator recovers and cooperative termination (Decision_req)
     drains the prepared table. *)
  let result =
    sampled_run
      ~faults:
        Workload.Runner.
          [
            Crash { at = Simtime.of_ms 100; replica = 0 };
            Recover { at = Simtime.of_ms 600; replica = 0 };
          ]
      locking_factory
  in
  let in_doubt =
    List.filter
      (fun (s : Timeseries.series) -> s.Timeseries.name = "tpc_in_doubt")
      result.Workload.Runner.series
  in
  Alcotest.(check bool) "in-doubt gauge registered" true (in_doubt <> []);
  let peak =
    List.fold_left
      (fun acc s -> Stdlib.max acc (Timeseries.max_value s))
      0. in_doubt
  in
  Alcotest.(check bool) "some replica goes in doubt during the crash" true
    (peak > 0.);
  List.iter
    (fun (s : Timeseries.series) ->
      match List.rev (Timeseries.points s) with
      | [] -> ()
      | last :: _ ->
          Alcotest.(check (float 0.0))
            "in-doubt drains to zero after recovery" 0. last.Timeseries.value)
    in_doubt

(* ------------------------------------------------------------------ *)
(* timeline --check                                                   *)
(* ------------------------------------------------------------------ *)

let partition_heal =
  (Option.get (Workload.Scenario.find "partition-heal"))
    .Workload.Scenario.events

let failed_oracles verdicts =
  List.map
    (fun (v : Workload.Verdict.t) -> v.oracle)
    (Workload.Verdict.failed verdicts)

(* The run `replisim timeline -t KEY --check` judges: partition-heal,
   two clients, sampled every 5 ms. *)
let test_timeline_live key () =
  let result =
    Workload.Runner.run ~seed:11 ~n_replicas:3 ~n_clients:2
      ~spec:
        { Workload.Scenario.default_spec with txns_per_client = 25 }
      ~faults:partition_heal ~deadline:(Simtime.of_ms 2000)
      ~sample:(Simtime.of_ms 5) (factory key)
  in
  let series = result.Workload.Runner.series in
  let verdicts =
    Workload.Scenario.timeline_verdicts
      ~partitioned:result.Workload.Runner.dropped_partitioned partition_heal
      series (Saturation.analyze series)
  in
  Alcotest.(check (list string)) "every verdict holds" []
    (failed_oracles verdicts);
  Alcotest.(check bool) "the backlog was judged" true
    (List.exists
       (fun (v : Workload.Verdict.t) -> v.oracle = "partition_backlog")
       verdicts)

(* The run `replisim timeline -t eager-ue-locking --scenario chaos`
   makes: replica 1 crashes from 100 to 500 ms. Messages its channels
   held when it crashed are sent again when it recovers, so once the run
   is over nothing is left unacked; they used to stay, two of them, from
   520 ms to the end. *)
let test_chaos_leaves_nothing_unacked () =
  let chaos = Option.get (Workload.Scenario.find "chaos") in
  let result =
    Workload.Runner.run ~seed:11 ~n_replicas:3 ~n_clients:2
      ~spec:
        { Workload.Scenario.default_spec with txns_per_client = 25 }
      ~faults:chaos.Workload.Scenario.events ~deadline:(Simtime.of_ms 2000)
      ~sample:(Simtime.of_ms 5) (factory "eager-ue-locking")
  in
  let unacked =
    List.find
      (fun (s : Timeseries.series) ->
        s.name = "rchan_unacked" && s.replica = 1)
      result.Workload.Runner.series
  in
  Alcotest.(check (option (float 0.))) "replica 1 ends with nothing unacked"
    (Some 0.)
    (match unacked.points_rev with
    | p :: _ -> Some p.Timeseries.value
    | [] -> None)

let queue ?(name = "rchan_unacked") values =
  {
    Timeseries.name;
    replica = 0;
    kind = Timeseries.Queue;
    unit_ = "";
    points_rev =
      List.rev_map
        (fun (ms, value) -> { Timeseries.at = Simtime.of_ms ms; value })
        values;
    n_points = List.length values;
    thunks = [];
  }

(* partition-heal cuts replica 2 off from 50 to 600 ms. *)
let backlog = queue [ (0, 0.); (100, 3.); (700, 0.) ]

let test_timeline_stray_finding () =
  let finding at until =
    {
      Saturation.detector = "queue_growth";
      metric = "rchan_unacked";
      replica = 0;
      at = Simtime.of_ms at;
      until = Simtime.of_ms until;
      peak = 5.;
      detail = "";
    }
  in
  Alcotest.(check (list string)) "a finding inside the partition" []
    (failed_oracles
       (Workload.Scenario.timeline_verdicts ~partitioned:1 partition_heal
          [ backlog ] [ finding 100 200 ]));
  Alcotest.(check (list string))
    "a finding after the heal's grace" [ "fault_window" ]
    (failed_oracles
       (Workload.Scenario.timeline_verdicts ~partitioned:1 partition_heal
          [ backlog ]
          [ finding 100 200; finding 1000 1100 ]))

let test_timeline_flat_backlog () =
  Alcotest.(check (list string)) "a flat backlog" [ "partition_backlog" ]
    (failed_oracles
       (Workload.Scenario.timeline_verdicts ~partitioned:1 partition_heal
          [ queue [ (0, 0.); (100, 1.); (700, 0.) ] ]
          []));
  Alcotest.(check (list string)) "a backlog that never drains"
    [ "partition_backlog" ]
    (failed_oracles
       (Workload.Scenario.timeline_verdicts ~partitioned:1 partition_heal
          [ queue [ (0, 0.); (100, 3.); (700, 2.) ] ]
          []));
  Alcotest.(check (list string)) "no partition, no backlog needed" []
    (failed_oracles
       (Workload.Scenario.timeline_verdicts ~partitioned:0 []
          [ queue [ (0, 0.) ] ]
          []))

(* A partition is judged only if the network dropped some message at
   it: one that dropped nothing (chaos on a run that ended before its
   partition) has nothing to queue and passes, whatever the queues
   show; one that dropped messages must show a backlog that built and
   drained, measured from the queue's level when the partition began. *)
let test_timeline_idle_partition () =
  let backlog_verdict ~partitioned queues =
    List.find
      (fun (v : Workload.Verdict.t) -> v.oracle = "partition_backlog")
      (Workload.Scenario.timeline_verdicts ~partitioned partition_heal queues
         [])
  in
  let flat = queue [ (0, 0.); (100, 1.); (700, 0.) ] in
  let idle = backlog_verdict ~partitioned:0 [ flat ] in
  Alcotest.(check (pair bool string)) "nothing dropped: not judged"
    (true, "the partition dropped no message")
    (idle.ok, idle.detail);
  Alcotest.(check (pair bool string)) "nothing dropped and no queue sampled"
    (true, "the partition dropped no message")
    (let v = backlog_verdict ~partitioned:0 [] in
     (v.ok, v.detail));
  Alcotest.(check bool) "drops, and nothing queued" false
    (backlog_verdict ~partitioned:3 [ flat ]).ok;
  Alcotest.(check (pair bool string)) "drops, and a backlog that drained"
    (true, "rchan_unacked built up in the partition, drained later")
    (let v = backlog_verdict ~partitioned:3 [ backlog ] in
     (v.ok, v.detail));
  (* A queue that stood at 2 when the partition began (entries an
     earlier crash left behind) is judged from that level. *)
  let standing peak = queue [ (0, 2.); (100, peak); (700, 2.) ] in
  Alcotest.(check bool) "from its level: built by 2, back to it" true
    (backlog_verdict ~partitioned:3 [ standing 4. ]).ok;
  Alcotest.(check bool) "from its level: built by 1 only" false
    (backlog_verdict ~partitioned:3 [ standing 3. ]).ok

let () =
  Alcotest.run "timeseries"
    [
      ( "sampler",
        [
          tc "determinism" test_sampler_determinism;
          tc "monotonic points" test_points_monotonic;
          tc "duplicate registration sums" test_duplicate_registration_sums;
        ] );
      ( "saturation",
        [
          tc "queue growth" test_queue_growth_detector;
          tc "waiter convoy" test_waiter_convoy_detector;
          tc "window overrun" test_window_overrun_detector;
        ] );
      ( "summary",
        [
          tc "empty" test_summary_empty;
          tc "single sample" test_summary_single_sample;
        ] );
      ( "in-doubt",
        [ tc "rises under coordinator crash" test_in_doubt_rises_and_clears ] );
      ( "timeline check",
        [
          tc "partition-heal on active" (test_timeline_live "active");
          tc "partition-heal on eager-ue-locking"
            (test_timeline_live "eager-ue-locking");
          tc "finding outside every fault window" test_timeline_stray_finding;
          tc "partition with a flat backlog" test_timeline_flat_backlog;
          tc "partition no request crossed" test_timeline_idle_partition;
          tc "chaos leaves nothing unacked" test_chaos_leaves_nothing_unacked;
        ] );
    ]
