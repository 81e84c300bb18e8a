(* Hot-standby failover with eager primary copy (§4.3).

   The paper: eager primary copy "is only used for fault-tolerance in
   order to implement a hot-standby backup mechanism where a primary site
   executes all operations and a secondary site is ready to immediately
   take over in case the primary fails".

   We run a stream of updates, crash the primary mid-stream, and watch the
   client re-submit to the standby: every request commits exactly once and
   the survivors stay identical.

     dune exec examples/hot_standby.exe
*)

open Sim

let () =
  let engine = Engine.create ~seed:12 () in
  let net = Network.create engine ~n:4 Network.default_config in
  let replicas = [ 0; 1; 2 ] and clients = [ 3 ] in
  let db =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find "eager-primary"))
      net ~replicas ~clients
  in

  let client = 3 in
  let committed = ref 0 in
  let rec order i =
    if i < 12 then
      db.submit ~client
        (Store.Operation.request net ~client
           [ Store.Operation.Incr ("orders", 1) ])
        (fun reply ->
          Fmt.pr "order %2d committed by replica %d at %a%s@." (i + 1)
            reply.Core.Technique.replica Simtime.pp reply.at
            (if reply.Core.Technique.replica <> 0 then "   <- standby" else "");
          if reply.Core.Technique.committed then incr committed;
          order (i + 1))
  in
  order 0;

  (* Pull the plug on the primary after 40 ms. *)
  ignore
    (Engine.schedule engine ~after:(Simtime.of_ms 40) (fun () ->
         Fmt.pr "@.*** primary (replica 0) crashes ***@.@.";
         Network.crash net 0));

  ignore (Engine.run ~until:(Simtime.of_sec 30.) engine);

  Fmt.pr "@.orders committed: %d / 12 (exactly-once despite retries)@."
    !committed;
  let survivors =
    List.filter_map
      (fun r -> if Network.alive net r then Some (db.replica_store r) else None)
      replicas
  in
  Fmt.pr "surviving replicas converged: %b@."
    (Core.Convergence.converged survivors);
  List.iter (fun s -> Fmt.pr "  %a@." Store.Kv.pp s) survivors;
  (* The client saw the failure: resubmissions appear in the phase trace
     (this is the "failure NOT transparent" half of Figure 5). *)
  let resubmissions =
    List.concat_map
      (fun rid -> Core.Phase_span.marks db.spans ~rid)
      (Core.Phase_span.rids db.spans)
    |> List.filter (fun m ->
           m.Core.Phase_span.note = "resubmission after timeout")
    |> List.length
  in
  Fmt.pr "client resubmissions observed: %d@." resubmissions
