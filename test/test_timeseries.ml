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

let test_hist_summary_empty () =
  let h =
    {
      Metrics.count = 0;
      sum = 0.;
      min = Float.infinity;
      max = Float.neg_infinity;
      bucket_counts = Array.make 64 0;
    }
  in
  let s = Metrics.hist_summary h in
  Alcotest.(check int) "count sentinel" 0 s.Summary.count;
  Alcotest.(check bool) "mean finite" true (finite s.Summary.mean);
  Alcotest.(check bool) "equals Summary.empty" true (s = Summary.empty)

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
          tc "empty histogram" test_hist_summary_empty;
        ] );
      ( "in-doubt",
        [ tc "rises under coordinator crash" test_in_doubt_rises_and_clears ] );
    ]
