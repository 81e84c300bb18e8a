(* The whole taxonomy, side by side: every technique of the paper runs the
   same workload on the same simulated cluster, and the table shows the
   trade-offs the paper describes qualitatively — response time, message
   cost, abort rate, consistency.

     dune exec examples/taxonomy_tour.exe
*)

(* Tuple view of the registry under default configuration, for the
   sweeps below. *)
let registry_entries =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      (e.Protocols.Registry.key, e.info, Protocols.Registry.default_factory e))
    Protocols.Registry.all

let () =
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 0.5;
      txns_per_client = 25;
      key_skew = 0.8;
      n_keys = 50;
    }
  in
  Fmt.pr "workload: %a, 3 replicas, 4 clients@.@." Workload.Spec.pp spec;
  Fmt.pr "%-18s %-16s %10s %8s %9s %11s %6s@." "technique" "phases"
    "lat(ms)" "aborts" "msgs/txn" "converged" "1SR";
  List.iter
    (fun (key, (info : Core.Technique.info), factory) ->
      let result =
        Workload.Runner.run ~spec (fun net ~replicas ~clients ->
            factory net ~replicas ~clients)
      in
      Fmt.pr "%-18s %-16s %10.2f %8d %9.1f %11b %6b@." key
        (Format.asprintf "%a" Core.Phase.pp_sequence info.expected_phases)
        result.Workload.Runner.latency_ms.Sim.Summary.mean
        result.Workload.Runner.aborted result.Workload.Runner.messages_per_txn
        result.Workload.Runner.converged result.Workload.Runner.serializable)
    registry_entries;
  Fmt.pr
    "@.(msgs/txn here includes failure-detector heartbeats and channel acks;@.\
     bench perf5 reports the protocol-only message pattern.)@."
