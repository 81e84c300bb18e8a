(* A replicated bank: concurrent transfers between accounts on an eager
   update-everywhere (ABCAST) database — the §4.4.2 technique.

   Invariants demonstrated:
   - money is conserved (the sum of balances never changes),
   - the global history is 1-copy serializable,
   - every replica ends with identical balances.

     dune exec examples/bank.exe
*)

open Sim

let n_accounts = 8
let initial_balance = 1_000
let account i = Printf.sprintf "acct%02d" i

let () =
  let engine = Engine.create ~seed:99 () in
  let net = Network.create engine ~n:7 Network.default_config in
  let replicas = [ 0; 1; 2 ] and clients = [ 3; 4; 5; 6 ] in
  let bank =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find "eager-ue-abcast"))
      net ~replicas ~clients
  in

  (* Fund the accounts through a single setup transaction. *)
  let funds =
    List.init n_accounts (fun i -> Store.Operation.Write (account i, initial_balance))
  in
  bank.submit ~client:3 (Store.Operation.request net ~client:3 funds) (fun _ -> ());
  ignore (Engine.run ~until:(Simtime.of_ms 100) engine);

  (* Four tellers issue random transfers concurrently. A transfer is a
     multi-operation transaction: debit one account, credit another. *)
  let rng = Rng.create ~seed:7 in
  let transfers = ref 0 in
  List.iter
    (fun client ->
      let rec transfer i =
        if i < 25 then begin
          let from_acct = Rng.int rng n_accounts in
          let to_acct = (from_acct + 1 + Rng.int rng (n_accounts - 1)) mod n_accounts in
          let amount = 1 + Rng.int rng 50 in
          let ops =
            [
              Store.Operation.Incr (account from_acct, -amount);
              Store.Operation.Incr (account to_acct, amount);
            ]
          in
          bank.submit ~client (Store.Operation.request net ~client ops)
            (fun reply ->
              if reply.Core.Technique.committed then incr transfers;
              transfer (i + 1))
        end
      in
      transfer 0)
    clients;
  ignore (Engine.run ~until:(Simtime.of_sec 30.) engine);

  Fmt.pr "transfers committed: %d@." !transfers;

  (* Audit each replica. *)
  List.iter
    (fun r ->
      let kv = bank.replica_store r in
      let total =
        List.fold_left
          (fun acc i -> acc + fst (Store.Kv.read kv (account i)))
          0
          (List.init n_accounts Fun.id)
      in
      Fmt.pr "replica %d: total balance = %d (expected %d) %s@." r total
        (n_accounts * initial_balance)
        (if total = n_accounts * initial_balance then "OK" else "** LOST MONEY **"))
    replicas;

  Fmt.pr "replicas converged: %b@."
    (Core.Convergence.converged (List.map bank.replica_store replicas));
  Fmt.pr "history: %a@." Store.Serializability.pp_verdict
    (Store.Serializability.check bank.history)
