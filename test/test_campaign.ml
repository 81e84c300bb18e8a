(* Campaign-level conformance: every registered technique, driven through
   the core failure scenarios with a fixed seed, must satisfy its
   per-technique oracle expectations (1-copy serializability, convergence
   after recovery, Figure-16 signature conformance, liveness,
   failure transparency). This is the top of the fault-injection test
   pyramid; the per-protocol tests cover the failure-free paths. *)

let scenario name =
  match Workload.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* Tuple view of the registry under default configuration, for the
   sweeps below. *)
let registry_entries =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      (e.Protocols.Registry.key, e.info, Protocols.Registry.default_factory e))
    Protocols.Registry.all

let conformance () =
  let scenarios =
    List.map scenario [ "crash"; "crash-recover"; "partition-heal"; "loss" ]
  in
  List.iter
    (fun (key, info, factory) ->
      List.iter
        (fun (sc : Workload.Scenario.t) ->
          let outcome =
            Workload.Scenario.run_one ~seed:11 ~key ~info ~factory sc
          in
          List.iter
            (fun (v : Workload.Verdict.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s under %s, oracle %s: %s" key sc.name
                   v.oracle v.detail)
                true v.ok)
            outcome.Workload.Scenario.verdicts)
        scenarios)
    registry_entries

let passive_factory () =
  match Protocols.Registry.find "passive" with
  | Some entry -> Protocols.Registry.default_factory entry
  | None -> Alcotest.fail "passive not registered"

let spec =
  {
    Workload.Spec.default with
    update_ratio = 1.0;
    txns_per_client = 20;
    think_time = Sim.Simtime.of_ms 2;
  }

(* Regression: the ex-primary recovers while the survivors are still
   reconfiguring (down 100..250 ms). It must rejoin through a view jump,
   agree with the survivors on the member order (primaryship is derived
   from the view head), discard its tentative pre-crash writes, and
   rebuild from a state transfer — historically this wedged the group
   with a zombie primary and two permanently unanswered requests. *)
let recovered_replica_converges () =
  let result =
    Workload.Runner.run ~seed:11 ~n_clients:2 ~spec
      ~faults:
        Workload.Runner.
          [
            Crash { at = Sim.Simtime.of_ms 100; replica = 0 };
            Recover { at = Sim.Simtime.of_ms 250; replica = 0 };
          ]
      ~deadline:(Sim.Simtime.of_sec 120.)
      (passive_factory ())
  in
  Alcotest.(check int) "all answered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check int) "all committed" 40 result.Workload.Runner.committed;
  Alcotest.(check bool) "converged" true result.Workload.Runner.converged;
  Alcotest.(check bool) "serializable" true result.Workload.Runner.serializable

(* Regression: a crash-recover faster than the failure detector. The
   group never excluded the replica, so its rejoin request arrives from a
   current member; the membership protocol must still run a view change
   for it to re-establish view synchrony. *)
let quick_crash_recover () =
  let result =
    Workload.Runner.run ~seed:11 ~n_clients:2 ~spec
      ~faults:
        Workload.Runner.
          [
            Crash { at = Sim.Simtime.of_ms 100; replica = 0 };
            Recover { at = Sim.Simtime.of_ms 130; replica = 0 };
          ]
      ~deadline:(Sim.Simtime.of_sec 120.)
      (passive_factory ())
  in
  Alcotest.(check int) "all answered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "converged" true result.Workload.Runner.converged;
  Alcotest.(check bool) "serializable" true result.Workload.Runner.serializable

(* The benchmark installs its scenario from a [tune] hook through
   [Scenario.apply]; campaigns pass the events as [~faults]. Both go
   through the runner's one fault scheduler at the same point of the
   build, so the two runs must be the same run. *)
let tune_path_matches_faults_path () =
  let chaos = scenario "chaos" in
  let run ?tune ?faults key =
    let entry = Option.get (Protocols.Registry.find key) in
    let r =
      Workload.Runner.run ~seed:11 ~n_clients:2
        ~spec:Workload.Scenario.default_spec ?tune ?faults
        (Protocols.Registry.default_factory entry)
    in
    { r with wall_s = 0. }
  in
  List.iter
    (fun key ->
      let via_tune =
        run key ~tune:(fun net ~replicas:_ ~clients:_ ->
            Workload.Scenario.apply chaos net)
      in
      let via_faults = run key ~faults:chaos.events in
      Alcotest.(check bool) (key ^ ": faults took effect") true
        (via_faults.dropped_crashed > 0 && via_faults.dropped_partitioned > 0);
      Alcotest.(check bool) (key ^ ": identical results") true
        (via_tune = via_faults))
    [ "eager-ue-abcast"; "passive" ]

(* Regression: eager-ue-locking lost a committed write across a state
   transfer. A transaction whose operations ran while the joiner was
   down committed at the donor just after the donor's snapshot, and
   reached neither the snapshot nor the joiner. These campaign cases
   ended with the joiner one write behind (backup-crash-recover seed 1:
   k0000 at v1 on the recovered replica, v2 elsewhere). *)
let locking_state_transfer_keeps_writes () =
  let entry = Option.get (Protocols.Registry.find "eager-ue-locking") in
  let factory = Protocols.Registry.default_factory entry in
  List.iter
    (fun (name, seeds) ->
      List.iter
        (fun seed ->
          let outcome =
            Workload.Scenario.run_one ~seed ~key:"eager-ue-locking"
              ~info:entry.Protocols.Registry.info ~factory (scenario name)
          in
          List.iter
            (fun (v : Workload.Verdict.t) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s seed %d, oracle %s: %s" name seed v.oracle
                   v.detail)
                true v.ok)
            outcome.Workload.Scenario.verdicts)
        seeds)
    [ ("backup-crash-recover", [ 1; 16 ]); ("chaos", [ 6; 17; 29 ]) ]

let () =
  Alcotest.run "campaign"
    [
      ( "campaign",
        [
          Alcotest.test_case "oracle conformance" `Slow conformance;
          Alcotest.test_case "recovered replica converges" `Quick
            recovered_replica_converges;
          Alcotest.test_case "quick crash-recover" `Quick quick_crash_recover;
          Alcotest.test_case "tune path matches faults path" `Quick
            tune_path_matches_faults_path;
          Alcotest.test_case "locking state transfer keeps every write"
            `Quick locking_state_transfer_keeps_writes;
        ] );
    ]
