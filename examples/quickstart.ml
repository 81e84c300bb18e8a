(* Quickstart: a replicated counter under active replication.

   Build a simulated cluster, pick a technique from the registry, submit
   transactions from a client, read the replies, and check that all
   replicas converged.

     dune exec examples/quickstart.exe
*)

open Sim

let () =
  (* 1. A deterministic simulation: engine + network with 3 replicas and
        1 client (node ids 0,1,2 and 3). *)
  let engine = Engine.create ~seed:2024 () in
  let net = Network.create engine ~n:4 Network.default_config in
  let replicas = [ 0; 1; 2 ] and clients = [ 3 ] in

  (* 2. Pick a replication technique from the registry and build it
        under its default settings. Every technique exposes the same
        [Core.Technique.instance] interface. *)
  let active = Option.get (Protocols.Registry.find "active") in
  let counter =
    Protocols.Registry.default_factory active net ~replicas ~clients
  in
  Fmt.pr "technique: %a@.@." Core.Technique.pp_info counter.info;

  (* 3. Submit ten increments and one read, closed loop. *)
  let client = 3 in
  let rec increment i =
    if i < 10 then
      counter.submit ~client
        (Store.Operation.request net ~client [ Store.Operation.Incr ("hits", 1) ])
        (fun reply ->
          Fmt.pr "increment %d -> committed=%b at %a@." (i + 1)
            reply.Core.Technique.committed Simtime.pp reply.at;
          increment (i + 1))
    else
      counter.submit ~client
        (Store.Operation.request net ~client [ Store.Operation.Read "hits" ])
        (fun reply ->
          Fmt.pr "@.read hits = %d@."
            (Option.value ~default:0 reply.Core.Technique.value))
  in
  increment 0;

  (* 4. Run the simulation to quiescence. *)
  ignore (Engine.run ~until:(Simtime.of_sec 5.) engine);

  (* 5. Every replica holds the same state. *)
  let stores = List.map counter.replica_store replicas in
  Fmt.pr "replicas converged: %b@." (Core.Convergence.converged stores);
  List.iter (fun s -> Fmt.pr "  %a@." Store.Kv.pp s) stores;

  (* 6. And the phase trace of the last request matches Figure 16. *)
  let rid = List.hd (List.rev (Core.Phase_span.rids counter.spans)) in
  Fmt.pr "@.phase signature of the read: %a@." Core.Phase.pp_sequence
    (Core.Phase_span.signature counter.spans ~rid)
