(* The cross-run observability stack: run-record byte-determinism and
   schema round-trips, the sweep grid algebra, the compare engine's
   regression/improvement verdicts, and the zipf key-popularity sampler
   (theta = 0 must be uniform, and every draw deterministic per seed). *)

let tc name f = Alcotest.test_case name `Quick f

(* One small audited run distilled into a normalized record. *)
let record_of ?(seed = 11) ?shape ?flash ?router
    (entry : Protocols.Registry.entry) =
  let factory = Protocols.Registry.configure_exn entry [] in
  let spec =
    Workload.Builder.spec ~updates:0.5 ~txns:5 ~keys:40 ?shape ?flash ()
  in
  let result =
    Workload.Runner.run ~seed ~n_replicas:3 ~n_clients:2 ~spec ~audit:true
      ?router factory
  in
  Workload.Run_record.normalize
    (Workload.Run_record.of_run ~technique:entry.key ~config:[] ~seed
       ~n_replicas:3 ~n_clients:2 ~arrival:`Closed ~spec result)

(* ---- record determinism and round-trip ------------------------------- *)

(* The property the committed baseline relies on: a same-seed re-run
   renders byte-identically once the wall-clock field is normalized. *)
let test_record_deterministic () =
  let entry = Option.get (Protocols.Registry.find "active") in
  let a = Workload.Run_record.to_json (record_of entry) in
  let b = Workload.Run_record.to_json (record_of entry) in
  Alcotest.(check string) "same seed renders byte-identically" a b;
  let c = Workload.Run_record.to_json (record_of ~seed:12 entry) in
  Alcotest.(check bool) "different seed differs" false (String.equal a c)

let test_record_roundtrip_all_techniques () =
  List.iter
    (fun (entry : Protocols.Registry.entry) ->
      let r = record_of entry in
      let json = Workload.Run_record.to_json r in
      match Workload.Run_record.of_string json with
      | Error msg -> Alcotest.failf "%s: round-trip failed: %s" entry.key msg
      | Ok r' ->
          Alcotest.(check string)
            (entry.key ^ ": parse . print is the identity")
            json
            (Workload.Run_record.to_json r');
          Alcotest.(check string)
            (entry.key ^ ": cell identity survives the round-trip")
            (Workload.Run_record.cell_id r)
            (Workload.Run_record.cell_id r'))
    Protocols.Registry.all

(* A stale baseline written by another schema version must fail loudly,
   not parse into garbage — in particular the v1 records this repo's
   pre-router baselines were written in. *)
let test_record_rejects_other_versions () =
  let entry = Option.get (Protocols.Registry.find "active") in
  let json = Workload.Run_record.to_json (record_of entry) in
  let needle =
    Printf.sprintf "\"record_version\":%d" Workload.Run_record.schema_version
  in
  let i =
    let rec find i =
      if String.sub json i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let rewrite_to v =
    String.sub json 0 i
    ^ Printf.sprintf "\"record_version\":%d" v
    ^ String.sub json
        (i + String.length needle)
        (String.length json - i - String.length needle)
  in
  List.iter
    (fun v ->
      match Workload.Run_record.of_string (rewrite_to v) with
      | Ok _ -> Alcotest.failf "record from schema version %d parsed" v
      | Error msg ->
          Alcotest.(check bool)
            "the error names the version mismatch" true
            (String.length msg > 0))
    [ 1; Workload.Run_record.schema_version + 1 ]

(* The v2 additions — session shape, flash crowd, router section —
   survive the round-trip and surface in the cell identity and the flat
   metric view. *)
let test_record_v2_router_roundtrip () =
  let entry = Option.get (Protocols.Registry.find "lazy-primary") in
  let r =
    record_of ~shape:Workload.Spec.Tpcb
      ~flash:Workload.Spec.default_flash_crowd
      ~router:
        { Workload.Router.default_config with Workload.Router.sticky = true }
      entry
  in
  let json = Workload.Run_record.to_json r in
  Alcotest.(check bool) "record carries a router section" true
    (r.Workload.Run_record.router <> None);
  (match Workload.Run_record.of_string json with
  | Error msg -> Alcotest.failf "v2 round-trip failed: %s" msg
  | Ok r' ->
      Alcotest.(check string) "parse . print is the identity" json
        (Workload.Run_record.to_json r');
      Alcotest.(check string) "cell identity survives"
        (Workload.Run_record.cell_id r)
        (Workload.Run_record.cell_id r'));
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "cell id names the shape" true
    (contains (Workload.Run_record.cell_id r) "shape=tpcb");
  Alcotest.(check bool) "cell id names the sticky router" true
    (contains (Workload.Run_record.cell_id r) "router=sticky");
  Alcotest.(check bool) "cell id names the flash phase" true
    (contains (Workload.Run_record.cell_id r) "flash[");
  Alcotest.(check (option (float 1e-9)))
    "router metrics surface in the flat view" (Some 1.)
    (Workload.Run_record.metric r "router_sticky")

let test_metric_view () =
  let entry = Option.get (Protocols.Registry.find "lazy-primary") in
  let r = record_of entry in
  Alcotest.(check (option (float 1e-9)))
    "flat view indexes the latency field"
    (Some r.Workload.Run_record.latency_p95_ms)
    (Workload.Run_record.metric r "latency_p95");
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool)
        (name ^ " is a declared metric name")
        true
        (List.mem name Workload.Run_record.metric_names))
    (Workload.Run_record.metrics r)

(* ---- sweep grid algebra ---------------------------------------------- *)

let test_sweep_cells () =
  let axes =
    {
      Workload.Sweep.default_axes with
      techniques = [ "active"; "lazy-primary" ];
      loads = [ 0.; 200. ];
      zipfs = [ 0.; 0.9 ];
      seeds = [ 11; 12 ];
      vary = [ ("active", "batch_window", [ "0ms"; "5ms" ]) ];
    }
  in
  let cells = Workload.Sweep.cells axes in
  (* active gets the vary axis (2×), lazy-primary does not:
     2 loads × 2 zipfs × 2 seeds = 8 base cells per technique. *)
  Alcotest.(check int) "vary applies only to its technique" 24
    (List.length cells);
  let again = Workload.Sweep.cells axes in
  Alcotest.(check bool) "expansion order is deterministic" true (cells = again);
  Alcotest.(check bool) "every active cell binds the vary key" true
    (List.for_all
       (fun (c : Workload.Sweep.cell) ->
         c.technique <> "active" || List.mem_assoc "batch_window" c.vary)
       cells)

(* ---- compare verdicts ------------------------------------------------ *)

let base_set = [ ("cell-a", [ ("latency_p95", 10.); ("throughput", 100.) ]) ]

let compare_with cand =
  Workload.Compare.compare_sets ~base:base_set ~cand ()

let test_compare_unchanged () =
  let report = compare_with base_set in
  Alcotest.(check int) "no regressions" 0
    (Workload.Compare.count Workload.Compare.Regressed report);
  Alcotest.(check bool) "identical sets pass" true
    (Workload.Compare.ok report)

(* The CI contract from the issue: an injected >=20% latency regression
   must trip the gate. *)
let test_compare_catches_regression () =
  let report =
    compare_with
      [ ("cell-a", [ ("latency_p95", 12.5); ("throughput", 100.) ]) ]
  in
  Alcotest.(check int) "one regression" 1
    (Workload.Compare.count Workload.Compare.Regressed report);
  Alcotest.(check bool) "gate trips" false (Workload.Compare.ok report)

let test_compare_blesses_improvement () =
  let report =
    compare_with
      [ ("cell-a", [ ("latency_p95", 6.); ("throughput", 150.) ]) ]
  in
  Alcotest.(check int) "both metrics improved" 2
    (Workload.Compare.count Workload.Compare.Improved report);
  Alcotest.(check bool) "improvements pass" true (Workload.Compare.ok report)

(* Direction is per-metric: a throughput drop is the regression even
   though the number went down. *)
let test_compare_throughput_direction () =
  let report =
    compare_with
      [ ("cell-a", [ ("latency_p95", 10.); ("throughput", 70.) ]) ]
  in
  let f =
    List.find
      (fun (f : Workload.Compare.finding) -> f.metric = "throughput")
      report.Workload.Compare.findings
  in
  Alcotest.(check bool) "the throughput drop is a regression" true
    (f.Workload.Compare.verdict = Workload.Compare.Regressed);
  Alcotest.(check int) "and the only one" 1
    (Workload.Compare.count Workload.Compare.Regressed report)

let test_compare_missing_cell_fails () =
  let report = compare_with [] in
  Alcotest.(check (list string))
    "baseline cell reported missing" [ "cell-a" ]
    report.Workload.Compare.missing;
  Alcotest.(check bool) "missing cells fail the gate" false
    (Workload.Compare.ok report)

(* ---- zipf key popularity --------------------------------------------- *)

let draw_counts ~seed ~theta ~n ~draws =
  let rng = Sim.Rng.create ~seed in
  let z = Sim.Rng.Zipf.make ~n ~theta in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Sim.Rng.Zipf.draw rng z in
    counts.(k) <- counts.(k) + 1
  done;
  counts

(* theta = 0 is uniform by construction: every key's weight is 1. *)
let test_zipf_theta_zero_uniform () =
  let counts = draw_counts ~seed:7 ~theta:0. ~n:10 ~draws:10_000 in
  Array.iteri
    (fun k c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "theta=0 not uniform: key %d drawn %d/10000 times" k c)
    counts

let test_zipf_skew_concentrates () =
  let counts = draw_counts ~seed:7 ~theta:1.2 ~n:10 ~draws:10_000 in
  Alcotest.(check bool) "hot key dominates the coldest under theta=1.2" true
    (counts.(0) > 3 * counts.(9))

let test_zipf_deterministic_per_seed () =
  let a = draw_counts ~seed:42 ~theta:0.9 ~n:20 ~draws:1_000 in
  let b = draw_counts ~seed:42 ~theta:0.9 ~n:20 ~draws:1_000 in
  let c = draw_counts ~seed:43 ~theta:0.9 ~n:20 ~draws:1_000 in
  Alcotest.(check bool) "same seed, same draws" true (a = b);
  Alcotest.(check bool) "different seed, different draws" false (a = c)

let () =
  Alcotest.run "run_record"
    [
      ( "record",
        [
          tc "same-seed normalized records are byte-identical"
            test_record_deterministic;
          tc "to_json/of_string round-trips for every technique"
            test_record_roundtrip_all_techniques;
          tc "other schema versions (incl. v1 baselines) are rejected"
            test_record_rejects_other_versions;
          tc "v2 shape/flash/router fields round-trip"
            test_record_v2_router_roundtrip;
          tc "flat metric view matches the fields" test_metric_view;
        ] );
      ( "sweep",
        [ tc "grid expansion: cartesian, deterministic, vary scoped"
            test_sweep_cells ] );
      ( "compare",
        [
          tc "identical sets pass" test_compare_unchanged;
          tc "injected 25% latency regression trips the gate"
            test_compare_catches_regression;
          tc "improvements are blessed" test_compare_blesses_improvement;
          tc "throughput drop is a regression" test_compare_throughput_direction;
          tc "missing baseline cell fails" test_compare_missing_cell_fails;
        ] );
      ( "zipf",
        [
          tc "theta=0 is uniform" test_zipf_theta_zero_uniform;
          tc "theta=1.2 concentrates on hot keys" test_zipf_skew_concentrates;
          tc "draws are deterministic per seed"
            test_zipf_deterministic_per_seed;
        ] );
    ]
