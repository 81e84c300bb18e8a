(* The sharding layer: deterministic key placement, the shards=1
   byte-identity invariant, shard-aware workload generation, oracle
   (1SR/convergence) conformance of sharded runs, and cross-shard 2PC
   atomicity under crash and partition. *)

let tc name f = Alcotest.test_case name `Quick f

(* A network to number requests; nothing is sent on it. *)
let rid_source () =
  Sim.Network.create (Sim.Engine.create ()) ~n:1 Sim.Network.default_config

(* ---- shard map ------------------------------------------------------ *)

let test_placement_deterministic () =
  let a = Store.Shard_map.create ~shards:4 () in
  let b = Store.Shard_map.create ~shards:4 () in
  for i = 0 to 199 do
    let key = Printf.sprintf "k%04d" i in
    let sa = Store.Shard_map.shard_of_key a key in
    Alcotest.(check int)
      (key ^ " places identically on two maps")
      sa
      (Store.Shard_map.shard_of_key b key);
    Alcotest.(check bool)
      (key ^ " in range") true
      (sa >= 0 && sa < 4)
  done

let test_hash_covers_all_shards () =
  let map = Store.Shard_map.create ~shards:4 () in
  let hit = Array.make 4 false in
  for i = 0 to 199 do
    hit.(Store.Shard_map.shard_of_key map (Printf.sprintf "k%04d" i)) <- true
  done;
  Array.iteri
    (fun s h -> Alcotest.(check bool) (Printf.sprintf "shard %d hit" s) true h)
    hit

let test_range_bands () =
  let map =
    Store.Shard_map.create ~strategy:(Store.Shard_map.Range { space = 100 })
      ~shards:4 ()
  in
  (* key i of a 100-key space lands in band i*4/100, and bands are
     monotone in i *)
  Alcotest.(check int) "k0000 in band 0" 0
    (Store.Shard_map.shard_of_key map "k0000");
  Alcotest.(check int) "k0099 in band 3" 3
    (Store.Shard_map.shard_of_key map "k0099");
  let prev = ref 0 in
  for i = 0 to 99 do
    let s = Store.Shard_map.shard_of_key map (Printf.sprintf "k%04d" i) in
    Alcotest.(check bool) "bands monotone" true (s >= !prev);
    prev := s
  done

let test_request_classification () =
  let net = rid_source () in
  let map = Store.Shard_map.create ~shards:4 () in
  (* find two keys in distinct shards *)
  let k0 = "k0000" in
  let s0 = Store.Shard_map.shard_of_key map k0 in
  let k1 =
    let rec go i =
      let k = Printf.sprintf "k%04d" i in
      if Store.Shard_map.shard_of_key map k <> s0 then k else go (i + 1)
    in
    go 1
  in
  let s1 = Store.Shard_map.shard_of_key map k1 in
  let single =
    Store.Operation.request net ~client:9 [ Store.Operation.Incr (k0, 1) ]
  in
  Alcotest.(check (list int))
    "single-shard request" [ s0 ]
    (Store.Shard_map.shards_of_request map single);
  let cross =
    Store.Operation.request net ~client:9
      [ Store.Operation.Incr (k0, 1); Store.Operation.Read (k1) ]
  in
  Alcotest.(check (list int))
    "cross-shard request"
    (List.sort compare [ s0; s1 ])
    (Store.Shard_map.shards_of_request map cross);
  let parts = Store.Shard_map.split_request map cross in
  Alcotest.(check int) "two parts" 2 (List.length parts);
  List.iter
    (fun (s, ops) ->
      List.iter
        (fun op ->
          List.iter
            (fun k ->
              Alcotest.(check int) "op lands on its own shard" s
                (Store.Shard_map.shard_of_key map k))
            (Store.Operation.read_keys op @ Store.Operation.write_keys op))
        ops)
    parts;
  Alcotest.(check (option int))
    "last read's shard" (Some s1)
    (Store.Shard_map.shard_of_last_read map cross);
  let opless = Store.Operation.request net ~client:9 [] in
  Alcotest.(check (list int))
    "op-less request maps to shard 0" [ 0 ]
    (Store.Shard_map.shards_of_request map opless)

let test_partition_groups () =
  let groups = Protocols.Sharded.partition ~shards:3 (List.init 8 Fun.id) in
  Alcotest.(check (list (list int)))
    "contiguous, sizes differ by at most one"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ]; [ 6; 7 ] ]
    groups;
  Alcotest.(check int) "probe group size" 3
    (Protocols.Sharded.probe_group_size ~n:8 ~shards:3);
  match Protocols.Sharded.partition ~shards:4 [ 0; 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards > replicas accepted"

(* ---- generator shard-awareness -------------------------------------- *)

let shards_touched spec request =
  let map = Store.Shard_map.create ~shards:spec.Workload.Spec.shards () in
  List.length (Store.Shard_map.shards_of_request map request)

let test_generator_single_shard () =
  let spec =
    { Workload.Spec.default with ops_per_txn = 4; shards = 4; cross_shard = 0. }
  in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:5 spec in
  for _ = 1 to 100 do
    let _, request = Workload.Generator.request gen net ~client:9 in
    Alcotest.(check int) "confined to one shard" 1 (shards_touched spec request)
  done

let test_generator_cross_shard () =
  let spec =
    { Workload.Spec.default with ops_per_txn = 2; shards = 4; cross_shard = 1. }
  in
  let net = rid_source () in
  let gen = Workload.Generator.create ~seed:5 spec in
  let crossing = ref 0 in
  for _ = 1 to 100 do
    let _, request = Workload.Generator.request gen net ~client:9 in
    if shards_touched spec request >= 2 then incr crossing
  done;
  (* rejection sampling can fall back on a hot shard, so not every
     transaction crosses — but the vast majority must *)
  Alcotest.(check bool)
    (Printf.sprintf "most transactions cross shards (%d/100)" !crossing)
    true (!crossing > 80)

(* ---- shards=1 byte-identity ----------------------------------------- *)

(* The run's JSONL trace, raw: rids are numbered per run, so two runs in
   one process compare byte for byte. *)
let trace_of factory =
  let spec = Workload.Builder.spec ~txns:10 ~ops:2 () in
  let result, inst =
    Workload.Runner.run_with_instance ~seed:23 ~n_clients:3 ~spec factory
  in
  Alcotest.(check int) "no unanswered" 0 result.Workload.Runner.unanswered;
  Sim.Trace_export.to_jsonl
    (Core.Phase_span.collector inst.Core.Technique.spans)

let test_shards1_byte_identical () =
  List.iter
    (fun key ->
      let entry = Option.get (Protocols.Registry.find key) in
      let unsharded = trace_of (Protocols.Registry.default_factory entry) in
      let sharded1 =
        trace_of (Protocols.Registry.configure_exn entry [ ("shards", "1") ])
      in
      Alcotest.(check string)
        (key ^ ": shards=1 trace byte-identical to unsharded")
        unsharded sharded1)
    [ "active"; "eager-primary"; "certification" ]

(* A workload generated for one shard would send the two groups
   uncontrolled cross-shard traffic: the runner refuses it, naming both
   counts. *)
let test_shard_count_mismatch_refused () =
  let entry = Option.get (Protocols.Registry.find "active") in
  let factory = Protocols.Registry.configure_exn entry [ ("shards", "2") ] in
  let spec = Workload.Builder.spec ~ops:2 ~txns:5 () in
  match Workload.Runner.run ~n_replicas:4 ~spec factory with
  | _ -> Alcotest.fail "a 1-shard workload ran on a 2-shard technique"
  | exception Invalid_argument msg ->
      Alcotest.(check string)
        "the message names both counts"
        "Runner.run: the workload is generated for 1 shard(s), the \
         technique runs 2 replication group(s)"
        msg

(* ---- sharded runs: commit, converge, 1SR ----------------------------- *)

let sharded_factory key =
  let entry = Option.get (Protocols.Registry.find key) in
  Protocols.Registry.configure_exn entry [ ("shards", "2") ]

let sharded_spec ~cross =
  Workload.Builder.spec ~ops:2 ~txns:20 ~shards:2 ~cross ()

let counter result name =
  Option.value ~default:0
    (Sim.Metrics.counter_value result.Workload.Runner.metrics name)

let run_sharded ?(seed = 11) ?(cross = 0.3) ?faults key =
  Workload.Runner.run ~seed ~n_replicas:4 ~n_clients:2
    ~spec:(sharded_spec ~cross) ?faults (sharded_factory key)

let test_oracles_sharded () =
  List.iter
    (fun key ->
      let result = run_sharded key in
      Alcotest.(check bool) (key ^ " commits") true
        (result.Workload.Runner.committed > 0);
      Alcotest.(check int) (key ^ " all answered") 0
        result.Workload.Runner.unanswered;
      Alcotest.(check bool) (key ^ " per-group convergence") true
        result.Workload.Runner.converged;
      Alcotest.(check bool) (key ^ " 1SR") true
        result.Workload.Runner.serializable;
      Alcotest.(check bool)
        (key ^ " saw cross-shard traffic") true
        (counter result "cross_shard_commit_total"
         + counter result "cross_shard_abort_total"
         > 0))
    [ "active"; "passive"; "eager-primary" ]

(* Lazy-ue's [conflicts] and certification's [aborts] cover every group
   of a sharded instance, not only one of them. The run is contended on
   purpose (4 hot keys, all updates) so that every group sees some. *)
let contended_sharded key =
  let spec = Workload.Builder.spec ~keys:4 ~updates:1.0 ~shards:2 () in
  let _, inst =
    Workload.Runner.run_with_instance ~seed:11 ~n_replicas:4 ~n_clients:4 ~spec
      (sharded_factory key)
  in
  let at name r =
    Sim.Metrics.counter inst.Core.Technique.metrics
      ~labels:[ ("replica", string_of_int r) ]
      name
  in
  (inst, at)

let test_sharded_conflicts_cover_every_group () =
  let inst, at = contended_sharded "lazy-ue" in
  let per_group =
    List.map
      (List.fold_left (fun acc r -> acc + at "reconciliation_conflicts_total" r) 0)
      inst.Core.Technique.groups
  in
  Alcotest.(check bool) "every group reconciled conflicts" true
    (List.length per_group = 2 && List.for_all (fun c -> c > 0) per_group);
  Alcotest.(check int) "conflicts = sum over the groups"
    (List.fold_left ( + ) 0 per_group)
    (Protocols.Lazy_ue.conflicts inst)

let test_sharded_aborts_cover_every_group () =
  let inst, at = contended_sharded "certification" in
  let per_group =
    List.map
      (fun g ->
        let first = at "certification_aborts_total" (List.hd g) in
        List.iter
          (fun r ->
            Alcotest.(check int)
              (Printf.sprintf "replica %d agrees with its group" r)
              first
              (at "certification_aborts_total" r))
          g;
        first)
      inst.Core.Technique.groups
  in
  Alcotest.(check bool) "every group aborted transactions" true
    (List.length per_group = 2 && List.for_all (fun c -> c > 0) per_group);
  Alcotest.(check int) "aborts = sum over the groups"
    (List.fold_left ( + ) 0 per_group)
    (Protocols.Certification_based.aborts inst)

(* Message cost of a single-shard transaction must depend on the group
   size, not the cluster size: the probe transaction's causal message
   count (the `replisim explain` measurement, which excludes background
   traffic like heartbeats) must be the same whether the cluster holds
   4 or 8 groups of the same size. *)
let test_group_local_cost () =
  let probe_msgs ~n ~shards =
    let entry = Option.get (Protocols.Registry.find "active") in
    let factory =
      Protocols.Registry.configure_exn entry [ ("shards", string_of_int shards) ]
    in
    let p =
      Workload.Builder.probe ~n
        ~net:{ Sim.Network.default_config with passthrough = true }
        factory
    in
    let msgs, _, summary = Workload.Builder.probe_summary p in
    Alcotest.(check bool) "probe replied" true summary.Sim.Msg_dag.replied;
    List.length msgs
  in
  let small = probe_msgs ~n:8 ~shards:4 in
  let large = probe_msgs ~n:16 ~shards:8 in
  (* group size is 2 in both clusters *)
  Alcotest.(check int)
    (Printf.sprintf
       "single-shard msgs/txn independent of cluster size (n=8: %d, n=16: %d)"
       small large)
    small large

(* ---- cross-shard 2PC atomicity under faults -------------------------- *)

(* Active replication never refuses a sub-transaction, so every
   cross-shard transaction that passes the 2PC round must commit in all
   of its groups: the partial-commit counter has to stay zero, crash or
   no crash. *)
let test_atomicity_under_crash () =
  let result =
    run_sharded ~cross:1.0
      ~faults:
        Workload.Runner.
          [
            Crash { at = Sim.Simtime.of_ms 30; replica = 0 };
            Recover { at = Sim.Simtime.of_ms 300; replica = 0 };
          ]
      "active"
  in
  Alcotest.(check int) "all answered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "per-group convergence" true
    result.Workload.Runner.converged;
  Alcotest.(check int) "no partial commits" 0
    (counter result "cross_shard_partial_total");
  Alcotest.(check bool) "some transactions went atomic" true
    (counter result "cross_shard_atomic_total" > 0)

let test_atomicity_under_partition () =
  let result =
    run_sharded ~cross:1.0
      ~faults:
        [
          Workload.Runner.Partition
            {
              at = Sim.Simtime.of_ms 30;
              group = [ 2 ];
              heal_at = Sim.Simtime.of_ms 300;
            };
        ]
      "active"
  in
  Alcotest.(check int) "all answered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "per-group convergence" true
    result.Workload.Runner.converged;
  Alcotest.(check int) "no partial commits" 0
    (counter result "cross_shard_partial_total")

(* A sharded campaign run must pass the standard oracles too. *)
let test_campaign_sharded () =
  let outcome =
    Workload.Scenario.run_one ~n_replicas:4 ~key:"active"
      ~spec:{ Workload.Scenario.default_spec with shards = 2 }
      ~info:(Option.get (Protocols.Registry.find "active")).info
      ~factory:(sharded_factory "active")
      (Option.get (Workload.Scenario.find "crash-recover"))
  in
  Alcotest.(check bool)
    ("sharded campaign ok: "
    ^ String.concat "; "
        (List.filter_map
           (fun (v : Workload.Verdict.t) ->
             if v.ok then None else Some (v.oracle ^ ": " ^ v.detail))
           outcome.verdicts))
    true outcome.ok

let () =
  Alcotest.run "shard"
    [
      ( "map",
        [
          tc "deterministic placement" test_placement_deterministic;
          tc "hash covers all shards" test_hash_covers_all_shards;
          tc "range bands" test_range_bands;
          tc "request classification" test_request_classification;
          tc "replica partition" test_partition_groups;
        ] );
      ( "generator",
        [
          tc "single-shard confinement" test_generator_single_shard;
          tc "cross-shard spread" test_generator_cross_shard;
        ] );
      ( "identity",
        [
          tc "shards=1 byte-identical" test_shards1_byte_identical;
          tc "shard count mismatch refused" test_shard_count_mismatch_refused;
        ] );
      ( "oracles",
        [
          tc "sharded runs converge + 1SR" test_oracles_sharded;
          tc "group-local message cost" test_group_local_cost;
          tc "sharded campaign" test_campaign_sharded;
          tc "lazy-ue conflicts cover every group"
            test_sharded_conflicts_cover_every_group;
          tc "certification aborts cover every group"
            test_sharded_aborts_cover_every_group;
        ] );
      ( "atomicity",
        [
          tc "under crash-recover" test_atomicity_under_crash;
          tc "under partition-heal" test_atomicity_under_partition;
        ] );
    ]
