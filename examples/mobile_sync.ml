(* Mobile users on a lazy update-everywhere database (§4.6).

   The paper motivates lazy replication with "the proliferation of
   applications for mobile users, where a copy is not always connected to
   the rest of the system". Here two field agents update the same
   customer record at different sites while the propagation link is slow;
   both get an immediate commit, the copies diverge, and reconciliation
   in the after-commit order makes everybody agree on a single winner.

     dune exec examples/mobile_sync.exe
*)

open Sim

let () =
  let engine = Engine.create ~seed:3 () in
  let net = Network.create engine ~n:5 Network.default_config in
  let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
  (* A long propagation delay stands in for the disconnected period. *)
  let crm =
    Protocols.Registry.configure_exn
      (Option.get (Protocols.Registry.find "lazy-ue"))
      [ ("propagation_delay", "500ms") ]
      net ~replicas ~clients
  in
  let show_copies label =
    Fmt.pr "%s@." label;
    List.iter
      (fun r ->
        let v, _ = Store.Kv.read (crm.replica_store r) "customer.phone" in
        Fmt.pr "  site %d sees customer.phone = %d@." r v)
      replicas
  in

  (* Agent A (client 3, local site 0) and agent B (client 4, local site 1)
     both update the same record while "offline". *)
  let update client value =
    crm.submit ~client
      (Store.Operation.request net ~client
         [ Store.Operation.Write ("customer.phone", value) ])
      (fun reply ->
        Fmt.pr "agent %d: update to %d committed locally at %a@." client value
          Simtime.pp reply.Core.Technique.at)
  in
  update 3 5551111;
  update 4 5552222;

  ignore (Engine.run ~until:(Simtime.of_ms 100) engine);
  show_copies "\nwhile disconnected (copies inconsistent — the paper's \"not only stale but inconsistent\"):";

  ignore (Engine.run ~until:(Simtime.of_sec 10.) engine);
  show_copies "\nafter reconciliation (after-commit order decides the winner):";

  Fmt.pr "@.conflicts detected and resolved: %d@."
    (Protocols.Lazy_ue.conflicts crm);
  Fmt.pr "replicas converged: %b@."
    (Core.Convergence.converged (List.map crm.replica_store replicas))
