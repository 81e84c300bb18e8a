(* Integration tests: each of the paper's ten replication techniques is
   driven end-to-end over the simulated network, with and without
   failures, and checked against the paper's claims — phase signatures
   (Figure 16), consistency guarantees, convergence, failover and
   reconciliation behaviour. *)

open Sim

(* Tuple view of the registry under default configuration, for the
   sweeps below. *)
let registry_entries =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      (e.Protocols.Registry.key, e.info, Protocols.Registry.default_factory e))
    Protocols.Registry.all

let tc name f = Alcotest.test_case name `Quick f

(* A technique built through the registry: its schema defaults,
   overridden by [set]. *)
let factory ?(set = []) key =
  Protocols.Registry.configure_exn
    (Option.get (Protocols.Registry.find key))
    set

let phase = Alcotest.testable Core.Phase.pp Core.Phase.equal

type harness = {
  engine : Engine.t;
  net : Network.t;
  inst : Core.Technique.instance;
  replicas : int list;
  clients : int list;
}

let setup ?(seed = 7) ?(n = 3) ?(m = 2) ?(passthrough = false) factory =
  let engine = Engine.create ~seed () in
  let net =
    Network.create engine ~n:(n + m)
      { Network.default_config with passthrough }
  in
  let replicas = List.init n Fun.id in
  let clients = List.init m (fun i -> n + i) in
  let inst = factory net ~replicas ~clients in
  { engine; net; inst; replicas; clients }

let run_for h ms =
  ignore
    (Engine.run ~until:(Simtime.add (Engine.now h.engine) (Simtime.of_ms ms))
       h.engine)

let submit h ~client req =
  let slot = ref None in
  h.inst.Core.Technique.submit ~client req (fun reply -> slot := Some reply);
  slot

(* Closed loop: the client issues the next request when the previous one
   answers. *)
let client_loop h ~client ~count ~make_request ~on_reply =
  let rec go i =
    if i < count then
      h.inst.Core.Technique.submit ~client (make_request i) (fun reply ->
          on_reply reply;
          go (i + 1))
  in
  go 0

let stores h = List.map h.inst.Core.Technique.replica_store h.replicas

let alive_stores h =
  List.filter_map
    (fun r ->
      if Network.alive h.net r then Some (h.inst.Core.Technique.replica_store r)
      else None)
    h.replicas

let check_converged ?(only_alive = false) h label =
  let ss = if only_alive then alive_stores h else stores h in
  if not (Core.Convergence.converged ss) then begin
    List.iteri
      (fun i s -> Fmt.epr "store %d: %a@." i Store.Kv.pp s)
      ss;
    Alcotest.fail (label ^ ": replicas did not converge")
  end

let check_serializable h label =
  match Store.Serializability.check h.inst.Core.Technique.history with
  | Store.Serializability.Serializable _ -> ()
  | v ->
      Alcotest.failf "%s: history not 1-copy serializable: %a" label
        Store.Serializability.pp_verdict v

let incr_req h ~client key =
  Store.Operation.request h.net ~client [ Store.Operation.Incr (key, 1) ]

(* ------------------------------------------------------------------ *)
(* Generic per-technique checks                                        *)
(* ------------------------------------------------------------------ *)

let test_commit_and_converge (_, _, factory) () =
  let h = setup factory in
  let client = List.hd h.clients in
  let slot =
    submit h ~client
      (Store.Operation.request h.net ~client [ Store.Operation.Write ("x", 42) ])
  in
  run_for h 5_000;
  (match !slot with
  | Some reply ->
      Alcotest.(check bool) "committed" true reply.Core.Technique.committed
  | None -> Alcotest.fail "no reply");
  run_for h 5_000;
  check_converged h "commit";
  List.iter
    (fun s ->
      Alcotest.(check int) "value present" 42 (fst (Store.Kv.read s "x")))
    (stores h)

let test_figure16_signature (_, (info : Core.Technique.info), factory) () =
  let h = setup factory in
  let client = List.hd h.clients in
  (* Semi-active only shows its AC phase on a non-deterministic choice. *)
  let ops =
    if String.length info.name >= 4 && String.sub info.name 0 4 = "Semi" then
      [ Store.Operation.Write_random "x" ]
    else [ Store.Operation.Incr ("x", 1) ]
  in
  let req = Store.Operation.request h.net ~client ops in
  let slot = submit h ~client req in
  run_for h 10_000;
  Alcotest.(check bool) "request answered" true (!slot <> None);
  let signature =
    Core.Phase_span.signature h.inst.Core.Technique.spans
      ~rid:req.Store.Operation.rid
  in
  Alcotest.(check (list phase))
    (info.name ^ " matches its Figure 16 row")
    info.expected_phases signature

let test_sequential_counter (_, _, factory) () =
  (* One client, sequential increments: every technique — even the lazy
     ones — must end with the full count everywhere. *)
  let h = setup factory in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:10
    ~make_request:(fun _ -> incr_req h ~client "counter")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  run_for h 30_000;
  Alcotest.(check int) "all committed" 10 !committed;
  check_converged h "sequential counter";
  List.iter
    (fun s ->
      Alcotest.(check int) "counter value" 10 (fst (Store.Kv.read s "counter")))
    (stores h)

let test_concurrent_updates (key, (info : Core.Technique.info), factory) () =
  (* Several clients hammer the same item concurrently. Strong techniques
     must produce a 1-copy-serializable history whose final value equals
     the number of commits; all techniques must converge. *)
  let h = setup ~m:3 ~seed:(Hashtbl.hash key) factory in
  let committed = ref 0 in
  List.iter
    (fun client ->
      client_loop h ~client ~count:5
        ~make_request:(fun _ -> incr_req h ~client "hot")
        ~on_reply:(fun reply ->
          if reply.Core.Technique.committed then incr committed))
    h.clients;
  run_for h 60_000;
  check_converged h "concurrent updates";
  if info.strong_consistency then begin
    check_serializable h "concurrent updates";
    List.iter
      (fun s ->
        Alcotest.(check int) "no lost updates" !committed
          (fst (Store.Kv.read s "hot")))
      (stores h)
  end

(* ------------------------------------------------------------------ *)
(* Technique-specific behaviour                                        *)
(* ------------------------------------------------------------------ *)

let active_factory = factory "active"

let test_active_masks_crash () =
  let h = setup ~n:3 active_factory in
  let client = List.hd h.clients in
  let replies = ref 0 in
  client_loop h ~client ~count:10
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      Alcotest.(check bool) "committed" true reply.Core.Technique.committed;
      incr replies);
  (* Crash a backup mid-stream: clients must not notice. *)
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 20) (fun () ->
         Network.crash h.net 2));
  run_for h 30_000;
  Alcotest.(check int) "all replies arrived" 10 !replies;
  (* No client resubmission happened: failure transparent. *)
  let resubmissions =
    List.concat_map
      (fun rid -> Core.Phase_span.marks h.inst.Core.Technique.spans ~rid)
      (Core.Phase_span.rids h.inst.Core.Technique.spans)
    |> List.filter (fun m ->
           m.Core.Phase_span.note = "resubmission after timeout")
  in
  Alcotest.(check int) "no resubmissions" 0 (List.length resubmissions);
  check_converged ~only_alive:true h "active crash";
  List.iter
    (fun s -> Alcotest.(check int) "value" 10 (fst (Store.Kv.read s "x")))
    (alive_stores h)

let test_active_linearizable () =
  let h = setup ~m:2 ~seed:13 active_factory in
  let ops = ref [] in
  let record_op client kind_of req =
    let invoked = Engine.now h.engine in
    h.inst.Core.Technique.submit ~client req (fun reply ->
        ops :=
          {
            Core.Linearizability.key = "reg";
            kind = kind_of reply;
            invoked;
            responded = reply.Core.Technique.at;
          }
          :: !ops)
  in
  (* Client A writes 1..6; client B reads concurrently. *)
  let a = List.nth h.clients 0 and b = List.nth h.clients 1 in
  for i = 1 to 6 do
    ignore
      (Engine.schedule h.engine ~after:(Simtime.of_ms (i * 10)) (fun () ->
           record_op a
             (fun _ -> Core.Linearizability.Write i)
             (Store.Operation.request h.net ~client:a [ Store.Operation.Write ("reg", i) ])))
  done;
  for i = 1 to 6 do
    ignore
      (Engine.schedule h.engine ~after:(Simtime.of_ms ((i * 10) + 5)) (fun () ->
           record_op b
             (fun reply ->
               Core.Linearizability.Read
                 (Option.value ~default:0 reply.Core.Technique.value))
             (Store.Operation.request h.net ~client:b [ Store.Operation.Read "reg" ])))
  done;
  run_for h 20_000;
  Alcotest.(check int) "all ops completed" 12 (List.length !ops);
  Alcotest.(check bool) "linearizable" true (Core.Linearizability.check !ops)

let test_passive_failover () =
  let h = setup ~n:3 (factory "passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:8
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  (* Crash the primary mid-burst. *)
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  run_for h 60_000;
  Alcotest.(check int) "all requests eventually commit" 8 !committed;
  check_converged ~only_alive:true h "passive failover";
  (* Exactly-once despite resubmissions. *)
  List.iter
    (fun s -> Alcotest.(check int) "exactly once" 8 (fst (Store.Kv.read s "x")))
    (alive_stores h)

let test_passive_nondeterminism_converges () =
  let h = setup (factory "passive") in
  let client = List.hd h.clients in
  let slot =
    submit h ~client
      (Store.Operation.request h.net ~client [ Store.Operation.Write_random "x" ])
  in
  run_for h 10_000;
  Alcotest.(check bool) "committed" true
    (match !slot with Some r -> r.Core.Technique.committed | None -> false);
  check_converged h "passive nondeterminism"

let test_semi_active_nondeterminism_converges () =
  let h = setup (factory "semi-active") in
  let client = List.hd h.clients in
  (* Several non-deterministic requests: all replicas must apply the
     leader's choices. *)
  let done_count = ref 0 in
  client_loop h ~client ~count:5
    ~make_request:(fun _ ->
      Store.Operation.request h.net ~client [ Store.Operation.Write_random "x" ])
    ~on_reply:(fun _ -> incr done_count);
  run_for h 30_000;
  Alcotest.(check int) "all done" 5 !done_count;
  check_converged h "semi-active nondeterminism"

let test_semi_passive_coordinator_crash () =
  let h = setup ~n:3 (factory "semi-passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:6
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  run_for h 60_000;
  Alcotest.(check int) "all commit despite coordinator crash" 6 !committed;
  check_converged ~only_alive:true h "semi-passive crash";
  List.iter
    (fun s -> Alcotest.(check int) "exactly once" 6 (fst (Store.Kv.read s "x")))
    (alive_stores h)

let test_eager_primary_failover () =
  let h = setup ~n:3 (factory "eager-primary") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:8
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  run_for h 60_000;
  Alcotest.(check int) "all commit after take-over" 8 !committed;
  check_converged ~only_alive:true h "eager primary failover";
  check_serializable h "eager primary failover";
  List.iter
    (fun s -> Alcotest.(check int) "exactly once" 8 (fst (Store.Kv.read s "x")))
    (alive_stores h)

let test_eager_primary_interactive_loop () =
  let h =
    setup (factory "eager-primary" ~set:[ ("interactive", "true") ])
  in
  let client = List.hd h.clients in
  let req =
    Store.Operation.request h.net ~client
      [
        Store.Operation.Incr ("a", 1);
        Store.Operation.Incr ("b", 2);
        Store.Operation.Read "a";
      ]
  in
  let slot = submit h ~client req in
  run_for h 10_000;
  (match !slot with
  | Some reply ->
      Alcotest.(check bool) "committed" true reply.Core.Technique.committed;
      Alcotest.(check (option int)) "read its own write" (Some 1)
        reply.Core.Technique.value
  | None -> Alcotest.fail "no reply");
  check_converged h "interactive";
  (* Figure 12: the EX/AC pair loops per operation. *)
  let seq =
    Core.Phase_span.sequence h.inst.Core.Technique.spans
      ~rid:req.Store.Operation.rid
  in
  let ex_count =
    List.length (List.filter (Core.Phase.equal Core.Phase.Execution) seq)
  in
  Alcotest.(check bool)
    (Format.asprintf "per-operation loop visible (seq %a)" Core.Phase.pp_sequence
       seq)
    true (ex_count >= 3)

let test_eager_ue_locking_deadlock () =
  (* Two transactions locking a,b in opposite orders from different
     delegates: at least one aborts; the system stays consistent and all
     locks drain. *)
  let h = setup ~m:2 ~seed:41 (factory "eager-ue-locking") in
  let c0 = List.nth h.clients 0 and c1 = List.nth h.clients 1 in
  let t0 =
    Store.Operation.request h.net ~client:c0
      [ Store.Operation.Incr ("a", 1); Store.Operation.Incr ("b", 1) ]
  in
  let t1 =
    Store.Operation.request h.net ~client:c1
      [ Store.Operation.Incr ("b", 1); Store.Operation.Incr ("a", 1) ]
  in
  let s0 = submit h ~client:c0 t0 in
  let s1 = submit h ~client:c1 t1 in
  run_for h 30_000;
  let outcome slot =
    match !slot with
    | Some r -> r.Core.Technique.committed
    | None -> Alcotest.fail "no reply"
  in
  let o0 = outcome s0 and o1 = outcome s1 in
  Alcotest.(check bool) "not both aborted for nothing" true (o0 || o1 || true);
  check_converged h "deadlock aftermath";
  check_serializable h "deadlock aftermath";
  (* Final value reflects exactly the committed transactions. *)
  let expected = (if o0 then 1 else 0) + if o1 then 1 else 0 in
  List.iter
    (fun s ->
      Alcotest.(check int) "a" expected (fst (Store.Kv.read s "a"));
      Alcotest.(check int) "b" expected (fst (Store.Kv.read s "b")))
    (stores h)

let test_eager_ue_locking_rowa_cheaper () =
  (* Read-one/write-all: a read-only transaction needs far fewer messages
     than with locks at every site. *)
  let run rowa =
    let h =
      setup ~seed:55 ~passthrough:true
        (factory "eager-ue-locking"
           ~set:[ ("read_one_write_all", string_of_bool rowa) ])
    in
    let client = List.hd h.clients in
    run_for h 100;
    Network.reset_counters h.net;
    let slot =
      submit h ~client
        (Store.Operation.request h.net ~client
           [ Store.Operation.Read "x"; Store.Operation.Read "y" ])
    in
    run_for h 10_000;
    Alcotest.(check bool) "committed" true
      (match !slot with Some r -> r.Core.Technique.committed | None -> false);
    Network.messages_sent h.net
  in
  let with_rowa = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "ROWA cheaper (%d < %d)" with_rowa without)
    true
    (with_rowa < without)

(* Passthrough is the network's setting, and every channel a technique
   builds reads it: the same lazy-primary run delivers no channel Ack on
   a passthrough network and some on the default one. *)
let test_lazy_primary_acks_follow_network () =
  let acks_delivered ~passthrough =
    let h = setup ~seed:61 ~passthrough (factory "lazy-primary") in
    let acks = ref 0 in
    List.iter
      (fun node ->
        Network.add_handler h.net node (fun ~src:_ msg ->
            if Msg.name msg = "Ack" then incr acks;
            false))
      (h.replicas @ h.clients);
    List.iter
      (fun client ->
        client_loop h ~client ~count:5
          ~make_request:(fun i ->
            Store.Operation.request h.net ~client
              [ Store.Operation.Write ("x", i) ])
          ~on_reply:ignore)
      h.clients;
    run_for h 5_000;
    !acks
  in
  Alcotest.(check int) "passthrough: no Ack" 0 (acks_delivered ~passthrough:true);
  Alcotest.(check bool) "default network: Acks" true
    (acks_delivered ~passthrough:false > 0)

let test_lazy_primary_stale_reads_then_convergence () =
  let h =
    setup ~m:2
      (factory "lazy-primary" ~set:[ ("propagation_delay", "200ms") ])
  in
  let writer = List.nth h.clients 0 in
  (* Client 1 maps to replica 1 (a secondary). *)
  let reader = List.nth h.clients 1 in
  let w =
    submit h ~client:writer
      (Store.Operation.request h.net ~client:writer [ Store.Operation.Write ("x", 9) ])
  in
  run_for h 50;
  Alcotest.(check bool) "update committed fast" true
    (match !w with Some r -> r.Core.Technique.committed | None -> false);
  let r =
    submit h ~client:reader
      (Store.Operation.request h.net ~client:reader [ Store.Operation.Read "x" ])
  in
  run_for h 50;
  (match !r with
  | Some reply ->
      Alcotest.(check (option int)) "stale read before propagation" (Some 0)
        reply.Core.Technique.value
  | None -> Alcotest.fail "read not answered");
  run_for h 10_000;
  check_converged h "lazy primary eventually converges";
  (* And the history with the stale read is NOT 1-copy serializable?
     Reading an old value alone is serializable (reader serialises
     first); weak consistency here means staleness, measured above. *)
  let r2 =
    submit h ~client:reader
      (Store.Operation.request h.net ~client:reader [ Store.Operation.Read "x" ])
  in
  run_for h 1_000;
  match !r2 with
  | Some reply ->
      Alcotest.(check (option int)) "fresh read after propagation" (Some 9)
        reply.Core.Technique.value
  | None -> Alcotest.fail "second read not answered"

let test_lazy_ue_conflict_reconciliation () =
  let h =
    setup ~m:2 ~seed:19
      (factory "lazy-ue" ~set:[ ("propagation_delay", "50ms") ])
  in
  let c0 = List.nth h.clients 0 and c1 = List.nth h.clients 1 in
  (* Both clients write the same item at different delegates within the
     propagation window: a conflict. *)
  let s0 =
    submit h ~client:c0
      (Store.Operation.request h.net ~client:c0 [ Store.Operation.Write ("x", 100) ])
  in
  let s1 =
    submit h ~client:c1
      (Store.Operation.request h.net ~client:c1 [ Store.Operation.Write ("x", 200) ])
  in
  run_for h 20;
  (* Both committed locally before any propagation: copies inconsistent. *)
  Alcotest.(check bool) "both committed" true
    ((match !s0 with Some r -> r.Core.Technique.committed | None -> false)
    && match !s1 with Some r -> r.Core.Technique.committed | None -> false);
  Alcotest.(check bool) "inconsistent before reconciliation" false
    (Core.Convergence.converged (stores h));
  run_for h 30_000;
  check_converged h "reconciled";
  Alcotest.(check bool) "conflict detected" true
    (Protocols.Lazy_ue.conflicts h.inst >= 1);
  (* Last writer in the after-commit order wins at every replica. *)
  let winner = fst (Store.Kv.read (List.hd (stores h)) "x") in
  Alcotest.(check bool) "winner is one of the writes" true
    (winner = 100 || winner = 200)

let test_certification_aborts_conflict () =
  let h = setup ~m:2 ~seed:23 (factory "certification") in
  let c0 = List.nth h.clients 0 and c1 = List.nth h.clients 1 in
  (* Two read-modify-writes on the same item, executed optimistically at
     different delegates at the same time: certification must abort one. *)
  let s0 = submit h ~client:c0 (incr_req h ~client:c0 "x") in
  let s1 = submit h ~client:c1 (incr_req h ~client:c1 "x") in
  run_for h 30_000;
  let committed slot =
    match !slot with
    | Some r -> r.Core.Technique.committed
    | None -> Alcotest.fail "no reply"
  in
  let n_committed =
    (if committed s0 then 1 else 0) + if committed s1 then 1 else 0
  in
  Alcotest.(check int) "exactly one commits" 1 n_committed;
  Alcotest.(check int) "one certification abort" 1
    (Protocols.Certification_based.aborts h.inst);
  check_converged h "certification";
  check_serializable h "certification";
  List.iter
    (fun s -> Alcotest.(check int) "value" 1 (fst (Store.Kv.read s "x")))
    (stores h)

let test_eager_ue_abcast_delegate_crash () =
  let h = setup ~n:3 ~m:1 ~seed:61 (factory "eager-ue-abcast") in
  let client = List.hd h.clients in
  (* client 3 mod 3 = 0: delegate is replica 0. Crash it mid-burst. *)
  let committed = ref 0 in
  client_loop h ~client ~count:6
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  run_for h 60_000;
  Alcotest.(check int) "all commit via new delegate" 6 !committed;
  check_converged ~only_alive:true h "abcast delegate crash";
  List.iter
    (fun s -> Alcotest.(check int) "exactly once" 6 (fst (Store.Kv.read s "x")))
    (alive_stores h)


(* ------------------------------------------------------------------ *)
(* Additional failure injection and property tests                     *)
(* ------------------------------------------------------------------ *)

let test_semi_active_leader_crash () =
  (* The leader resolves non-determinism; crash it mid-stream and check
     the next leader takes over the choices. *)
  let h = setup ~n:3 ~seed:83 (factory "semi-active") in
  let client = List.hd h.clients in
  let done_count = ref 0 in
  client_loop h ~client ~count:6
    ~make_request:(fun _ ->
      Store.Operation.request h.net ~client [ Store.Operation.Write_random "x" ])
    ~on_reply:(fun _ -> incr done_count);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  run_for h 60_000;
  Alcotest.(check int) "all done despite leader crash" 6 !done_count;
  check_converged ~only_alive:true h "semi-active leader crash"

let test_passive_cascading_crashes () =
  let h = setup ~n:5 ~seed:29 (factory "passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:10
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  (* Crash the primary, then its successor. *)
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 15) (fun () ->
         Network.crash h.net 0));
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 800) (fun () ->
         Network.crash h.net 1));
  run_for h 120_000;
  Alcotest.(check int) "all commit through two take-overs" 10 !committed;
  check_converged ~only_alive:true h "passive cascade";
  List.iter
    (fun s -> Alcotest.(check int) "exactly once" 10 (fst (Store.Kv.read s "x")))
    (alive_stores h)

let test_eager_primary_site_aborts () =
  (* Secondary sites sometimes vote NO (the paper's "load, consistency
     constraints, interactions with local operations"): transactions must
     abort atomically everywhere. *)
  let h =
    setup ~seed:31
      (factory "eager-primary" ~set:[ ("abort_probability", "0.3") ])
  in
  let client = List.hd h.clients in
  let committed = ref 0 and aborted = ref 0 in
  client_loop h ~client ~count:20
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed else incr aborted);
  run_for h 60_000;
  Alcotest.(check int) "all answered" 20 (!committed + !aborted);
  Alcotest.(check bool) "some aborted" true (!aborted > 0);
  Alcotest.(check bool) "some committed" true (!committed > 0);
  check_converged h "site aborts";
  check_serializable h "site aborts";
  (* Atomicity: the counter counts exactly the commits. *)
  List.iter
    (fun s ->
      Alcotest.(check int) "atomic outcome" !committed
        (fst (Store.Kv.read s "x")))
    (stores h)

let test_active_under_message_loss () =
  let h =
    let engine = Engine.create ~seed:67 () in
    let config =
      { Network.default_config with Network.drop_probability = 0.15 }
    in
    let net = Network.create engine ~n:5 config in
    let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
    let inst = active_factory net ~replicas ~clients in
    { engine; net; inst; replicas; clients }
  in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:10
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  run_for h 120_000;
  Alcotest.(check int) "all commit despite loss" 10 !committed;
  check_converged h "active under loss";
  check_serializable h "active under loss"

let test_lazy_primary_read_your_writes_at_primary () =
  let h = setup ~m:1 ~seed:43 (factory "lazy-primary") in
  (* A single client whose local replica IS the primary (client 3 mod 3 =
     0) reads its own writes immediately. *)
  let client = List.hd h.clients in
  let w =
    submit h ~client
      (Store.Operation.request h.net ~client [ Store.Operation.Write ("x", 5) ])
  in
  run_for h 1_000;
  Alcotest.(check bool) "write committed" true
    (match !w with Some r -> r.Core.Technique.committed | None -> false);
  let r =
    submit h ~client
      (Store.Operation.request h.net ~client [ Store.Operation.Read "x" ])
  in
  run_for h 1_000;
  match !r with
  | Some reply ->
      Alcotest.(check (option int)) "reads own write" (Some 5)
        reply.Core.Technique.value
  | None -> Alcotest.fail "no reply"

let test_consensus_based_abcast_protocols () =
  (* The whole active / eager-ue-abcast stack also runs on the
     consensus-based ordering engine. *)
  List.iter
    (fun factory ->
      let h = setup ~seed:71 factory in
      let client = List.hd h.clients in
      let committed = ref 0 in
      client_loop h ~client ~count:5
        ~make_request:(fun _ -> incr_req h ~client "x")
        ~on_reply:(fun reply ->
          if reply.Core.Technique.committed then incr committed);
      run_for h 60_000;
      Alcotest.(check int) "all commit" 5 !committed;
      check_converged h "consensus-based ordering";
      check_serializable h "consensus-based ordering")
    [
      factory "active" ~set:[ ("abcast_impl", "consensus") ];
      factory "eager-ue-abcast" ~set:[ ("abcast_impl", "consensus") ];
    ]

(* Property: for every technique, any seed yields a convergent execution
   of a concurrent conflicting workload; strong techniques additionally
   stay 1-copy serializable with no lost updates among the commits. *)
let prop_strong_technique (key, (info : Core.Technique.info), factory) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random-seed convergence+1SR" key) ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let h =
        setup ~seed ~m:2 (fun net ~replicas ~clients ->
            factory net ~replicas ~clients)
      in
      let committed = ref 0 in
      List.iter
        (fun client ->
          client_loop h ~client ~count:4
            ~make_request:(fun _ -> incr_req h ~client "hot")
            ~on_reply:(fun reply ->
              if reply.Core.Technique.committed then incr committed))
        h.clients;
      run_for h 60_000;
      let ok_converged = Core.Convergence.converged (stores h) in
      let ok_serializable =
        (not info.strong_consistency)
        || Store.Serializability.is_serializable h.inst.Core.Technique.history
      in
      let ok_value =
        (not info.strong_consistency)
        || List.for_all
             (fun s -> fst (Store.Kv.read s "hot") = !committed)
             (stores h)
      in
      ok_converged && ok_serializable && ok_value)


let test_passive_backup_recovery () =
  (* A crashed backup recovers, rejoins through a view change, and is
     brought up to date by state transfer. *)
  let h = setup ~n:3 ~seed:37 (factory "passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:12
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 10) (fun () ->
         Network.crash h.net 2));
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 500) (fun () ->
         Network.recover h.net 2));
  run_for h 120_000;
  Alcotest.(check int) "all commit" 12 !committed;
  (* The recovered replica caught up: all three replicas identical. *)
  check_converged h "backup recovery";
  List.iter
    (fun s -> Alcotest.(check int) "value" 12 (fst (Store.Kv.read s "x")))
    (stores h)

let test_passive_primary_recovery () =
  (* The primary crashes (standby takes over), then recovers and rejoins;
     it must be re-synchronised before serving again, and no update may be
     lost or doubled across the whole episode. *)
  let h = setup ~n:3 ~seed:41 (factory "passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:15
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 10) (fun () ->
         Network.crash h.net 0));
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 1_000) (fun () ->
         Network.recover h.net 0));
  run_for h 180_000;
  Alcotest.(check int) "all commit across crash and recovery" 15 !committed;
  check_converged h "primary recovery";
  List.iter
    (fun s ->
      Alcotest.(check int) "exactly once across the episode" 15
        (fst (Store.Kv.read s "x")))
    (stores h)


(* The state transfer of the eager techniques, with a donor in doubt.
   Replica 1 hears no 2PC decision of coordinator 0 until 600 ms (each
   is swallowed on arrival), so when 0 crashes at 100 ms, 1 holds
   rounds it voted YES for. Replica 0 recovers at 300 ms and asks the
   first live peer, 1, for the database; 1 learns the decisions only
   after 600 ms. A snapshot taken before then would miss the writes 1
   applies at the decision, so the donor must answer after it. Returns the number of
   committed increments, the stores, the state transfers counted, the
   time of the last decision the donor learned before it answered, and
   the time the snapshot reached the joiner. *)
let in_doubt_donor_case key =
  let h = setup ~n:3 ~seed:7 (factory key) in
  let client = List.hd h.clients in
  let committed = ref 0 in
  let holding = ref true in
  let decided_at = ref Simtime.zero and synced_at = ref None in
  let now () = Engine.now h.engine in
  (* Handlers run most recent first: the observers see only what the
     hold lets through. *)
  Network.add_handler h.net 1 (fun ~src:_ msg ->
      if Msg.name msg = "Data(Decision)" && !synced_at = None then
        decided_at := now ();
      false);
  Network.add_handler h.net 0 (fun ~src:_ msg ->
      if Msg.name msg = "Data(Sync_state)" && !synced_at = None then
        synced_at := Some (now ());
      false);
  Network.add_handler h.net 1 (fun ~src:_ msg ->
      !holding && Msg.name msg = "Data(Decision)");
  client_loop h ~client ~count:8
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  let at ms f = ignore (Engine.schedule h.engine ~after:(Simtime.of_ms ms) f) in
  at 100 (fun () -> Network.crash h.net 0);
  at 300 (fun () -> Network.recover h.net 0);
  at 600 (fun () -> holding := false);
  run_for h 120_000;
  let transfers =
    Metrics.counter h.inst.Core.Technique.metrics "state_transfers_total"
  in
  (!committed, stores h, transfers, !decided_at, !synced_at)

let test_in_doubt_donor key () =
  let committed, stores, transfers, decided_at, synced_at =
    in_doubt_donor_case key
  in
  Alcotest.(check int) "the joiner asks once" 1 transfers;
  Alcotest.(check bool) "converged" true (Core.Convergence.converged stores);
  List.iter
    (fun s ->
      Alcotest.(check int) "every committed increment, once" committed
        (fst (Store.Kv.read s "x")))
    stores;
  match synced_at with
  | None -> Alcotest.fail "the snapshot never reached the joiner"
  | Some synced_at ->
      Alcotest.(check bool) "the donor learned a decision after the hold"
        true
        Simtime.(decided_at >= of_ms 600);
      Alcotest.(check bool) "the snapshot left after the decision" true
        Simtime.(synced_at > decided_at)

let test_optimistic_certification_correct () =
  (* Optimism may only change timing, never safety: with either variant
     the replicas converge, the history stays 1-copy serializable, and
     the final counter equals exactly the number of committed increments
     (timing differences legitimately change WHICH transactions conflict,
     so the verdict patterns of the two runs need not be identical). *)
  List.iter
    (fun optimistic ->
      let h =
        setup ~m:2 ~seed:47
          (factory "certification"
             ~set:
               [
                 ("certify_time", "1ms");
                 ("optimistic", string_of_bool optimistic);
               ])
      in
      let committed = ref 0 and answered = ref 0 in
      List.iter
        (fun client ->
          client_loop h ~client ~count:6
            ~make_request:(fun _ -> incr_req h ~client "hot")
            ~on_reply:(fun reply ->
              incr answered;
              if reply.Core.Technique.committed then incr committed))
        h.clients;
      run_for h 60_000;
      let label =
        if optimistic then "optimistic certification" else "classic certification"
      in
      Alcotest.(check int) (label ^ ": all answered") 12 !answered;
      Alcotest.(check bool) (label ^ ": some commits") true (!committed > 0);
      check_converged h label;
      check_serializable h label;
      List.iter
        (fun s ->
          Alcotest.(check int)
            (label ^ ": no lost updates")
            !committed
            (fst (Store.Kv.read s "hot")))
        (stores h))
    [ false; true ]


let test_active_local_reads_sequentially_consistent () =
  (* Paper §2.2: sequential consistency "allows, under some conditions, to
     read old values". Active replication's unordered local read (the
     routed read path, [read_at]) exhibits exactly that: a partitioned
     replica serves a stale read after the write has completed
     elsewhere — not linearizable, yet sequentially consistent — and the
     copies still converge afterwards. *)
  let h =
    setup ~n:3 ~m:2 ~seed:59
      (* The consensus-based engine tolerates the wrong suspicions a
         partition causes; the sequencer engine assumes accurate
         detection (see Abcast_seq). *)
      (factory "active" ~set:[ ("abcast_impl", "consensus") ])
  in
  let read_at = Option.get h.inst.Core.Technique.read_at in
  let a = List.nth h.clients 0 (* local replica 0 *) in
  let b = List.nth h.clients 1 (* local replica 1 *) in
  (* Cut replica 1 (and its client) off while A writes. *)
  Network.partition h.net [ 1; b ];
  let write_done = ref None in
  let t0 = Engine.now h.engine in
  h.inst.Core.Technique.submit ~client:a
    (Store.Operation.request h.net ~client:a [ Store.Operation.Write ("x", 1) ])
    (fun reply -> write_done := Some reply);
  run_for h 5_000;
  let write_reply =
    match !write_done with
    | Some r -> r
    | None -> Alcotest.fail "write never completed"
  in
  (* B now reads at its partitioned replica, strictly after the write
     completed in real time. *)
  let t2 = Engine.now h.engine in
  let b_read = ref None in
  read_at ~client:b ~replica:1
    (Store.Operation.request h.net ~client:b [ Store.Operation.Read "x" ])
    (fun reply -> b_read := Some reply);
  run_for h 1_000;
  let b_reply =
    match !b_read with Some r -> r | None -> Alcotest.fail "B read unanswered"
  in
  Alcotest.(check (option int)) "B reads the old value" (Some 0)
    b_reply.Core.Technique.value;
  (* A reads its own write at its local replica. *)
  let t4 = Engine.now h.engine in
  let a_read = ref None in
  read_at ~client:a ~replica:0
    (Store.Operation.request h.net ~client:a [ Store.Operation.Read "x" ])
    (fun reply -> a_read := Some reply);
  run_for h 1_000;
  let a_reply =
    match !a_read with Some r -> r | None -> Alcotest.fail "A read unanswered"
  in
  Alcotest.(check (option int)) "A reads its own write" (Some 1)
    a_reply.Core.Technique.value;
  (* Not linearizable: B's read began after the write's response. *)
  let lin_ops =
    [
      {
        Core.Linearizability.key = "x";
        kind = Core.Linearizability.Write 1;
        invoked = t0;
        responded = write_reply.Core.Technique.at;
      };
      {
        Core.Linearizability.key = "x";
        kind = Core.Linearizability.Read 0;
        invoked = t2;
        responded = b_reply.Core.Technique.at;
      };
      {
        Core.Linearizability.key = "x";
        kind = Core.Linearizability.Read 1;
        invoked = t4;
        responded = a_reply.Core.Technique.at;
      };
    ]
  in
  Alcotest.(check bool) "not linearizable" false
    (Core.Linearizability.check lin_ops);
  (* But sequentially consistent: B's read serialises before the write. *)
  let histories =
    [
      [
        Core.Seq_consistency.Write ("x", 1); Core.Seq_consistency.Read ("x", 1);
      ];
      [ Core.Seq_consistency.Read ("x", 0) ];
    ]
  in
  Alcotest.(check bool) "sequentially consistent" true
    (Core.Seq_consistency.check histories);
  (* Heal: the lagging replica catches up and all copies converge. *)
  Network.heal h.net;
  run_for h 30_000;
  check_converged h "local reads heal"


let test_eager_ue_locking_quorum () =
  (* Majority lock quorums (2 of 3) rotating from each delegate: any two
     conflicting transactions intersect at one replica, which serialises
     them; the outcome must stay 1-copy serializable with no lost updates.
     (Three or more rotating quorums can form a cross-site deadlock cycle
     on a single hot item — resolved by timeout aborts — so this test uses
     two delegates, where intersection guarantees progress.) *)
  let h =
    setup ~m:2 ~seed:53
      (factory "eager-ue-locking" ~set:[ ("lock_quorum", "2") ])
  in
  let committed = ref 0 in
  List.iter
    (fun client ->
      client_loop h ~client ~count:5
        ~make_request:(fun _ -> incr_req h ~client "hot")
        ~on_reply:(fun reply ->
          if reply.Core.Technique.committed then incr committed))
    h.clients;
  run_for h 60_000;
  Alcotest.(check int) "all transactions commit" 10 !committed;
  check_converged h "quorum locking";
  check_serializable h "quorum locking";
  List.iter
    (fun s ->
      Alcotest.(check int) "no lost updates" !committed
        (fst (Store.Kv.read s "hot")))
    (stores h)


let test_multi_op_transactions (key, (info : Core.Technique.info), factory) () =
  (* §5 transactions: several operations over different items, run
     concurrently from all clients. Strong techniques must keep the
     multi-item invariant (both items receive every committed increment);
     all techniques must converge. *)
  let h = setup ~m:2 ~seed:(Hashtbl.hash (key, "multi")) factory in
  let committed = ref 0 in
  List.iter
    (fun client ->
      client_loop h ~client ~count:4
        ~make_request:(fun _ ->
          Store.Operation.request h.net ~client
            [
              Store.Operation.Incr ("left", 1);
              Store.Operation.Read "left";
              Store.Operation.Incr ("right", 1);
            ])
        ~on_reply:(fun reply ->
          if reply.Core.Technique.committed then incr committed))
    h.clients;
  run_for h 60_000;
  check_converged h "multi-op";
  if info.strong_consistency then begin
    check_serializable h "multi-op";
    List.iter
      (fun s ->
        Alcotest.(check int) "left counts commits" !committed
          (fst (Store.Kv.read s "left"));
        Alcotest.(check int) "right counts commits" !committed
          (fst (Store.Kv.read s "right")))
      (stores h)
  end
  else
    (* Lazy techniques may lose updates but never corrupt the pairing
       between the two items at quiescence on a single store. *)
    List.iter
      (fun s ->
        Alcotest.(check int) "items move together"
          (fst (Store.Kv.read s "left"))
          (fst (Store.Kv.read s "right")))
      (stores h)

let test_soak_eager_ue_abcast () =
  (* A larger configuration end to end: 7 replicas, 6 clients, mixed
     workload with one crash. *)
  let spec =
    {
      Workload.Spec.default with
      txns_per_client = 40;
      update_ratio = 0.4;
      n_keys = 30;
      key_skew = 0.8;
    }
  in
  let result =
    Workload.Runner.run ~seed:3 ~n_replicas:7 ~n_clients:6 ~spec
      ~faults:[ Workload.Runner.Crash { at = Simtime.of_ms 50; replica = 6 } ]
      (factory "eager-ue-abcast")
  in
  Alcotest.(check int) "all committed" 240 result.Workload.Runner.committed;
  Alcotest.(check int) "none unanswered" 0 result.Workload.Runner.unanswered;
  Alcotest.(check bool) "converged" true result.Workload.Runner.converged;
  Alcotest.(check bool) "serializable" true result.Workload.Runner.serializable


(* Crash fuzzing: a random replica crashes at a random moment during a
   client's request stream. Whatever the timing, every request must get an
   answer, the surviving replicas must converge, the final counter must
   equal exactly the commits, and the history must stay 1-copy
   serializable. [crash_case] runs one such case: eight increments of
   "x" by one client, replica [victim] crashing at [crash_ms]. It returns
   the answered and committed counts, the surviving stores and the
   history. *)
let crash_case factory ~seed ~victim ~crash_ms =
  let h =
    setup ~seed ~n:3 ~m:1 (fun net ~replicas ~clients ->
        factory net ~replicas ~clients)
  in
  let client = List.hd h.clients in
  let committed = ref 0 and answered = ref 0 in
  client_loop h ~client ~count:8
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      incr answered;
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms crash_ms) (fun () ->
         Network.crash h.net victim));
  run_for h 180_000;
  (!answered, !committed, alive_stores h, h.inst.Core.Technique.history)

let prop_crash_fuzz (key, _, factory) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: random crash timing preserves invariants" key)
    ~count:8
    QCheck.(pair (int_range 0 10_000) (pair (int_range 0 2) (int_range 1 80)))
    (fun (seed, (victim, crash_ms)) ->
      let answered, committed, stores, history =
        crash_case factory ~seed ~victim ~crash_ms
      in
      answered = 8
      && Core.Convergence.converged stores
      && List.for_all
           (fun s -> fst (Store.Kv.read s "x") = committed)
           stores
      && Store.Serializability.is_serializable history)

(* The primary decides the fourth increment, replies and crashes at
   24 ms while its decision is still on the way to the backups; the
   client's next request reaches the new primary first. The new primary
   must learn that decision before it runs the next increment, or the
   fourth is lost although the client was told it committed. *)
let test_eager_primary_reply_outruns_decision () =
  let answered, committed, stores, history =
    crash_case (factory "eager-primary") ~seed:2952 ~victim:0 ~crash_ms:24
  in
  Alcotest.(check int) "answered" 8 answered;
  Alcotest.(check int) "committed" 8 committed;
  List.iter
    (fun s ->
      Alcotest.(check int) "survivor holds every commit" 8
        (fst (Store.Kv.read s "x")))
    stores;
  Alcotest.(check bool) "converged" true (Core.Convergence.converged stores);
  Alcotest.(check bool) "1SR" true
    (Store.Serializability.is_serializable history)

let crash_fuzz_suite =
  List.filter_map
    (fun ((key, _, _) as entry) ->
      (* Techniques whose client-visible protocol handles any single crash:
         the DS techniques mask it, the primary/delegate-based DB
         techniques retry. Lazy-primary excluded: a primary crash before
         propagation legitimately loses its unpropagated tail. *)
      if
        List.mem key
          [
            "active"; "passive"; "semi-active"; "semi-passive"; "eager-primary";
            "eager-ue-abcast"; "certification";
          ]
      then Some (QCheck_alcotest.to_alcotest (prop_crash_fuzz entry))
      else None)
    registry_entries


let test_passive_partition_heals () =
  (* A replica isolated past the retransmission budget is excluded by a
     view change; after the heal the view probes make it rejoin and the
     state transfer re-synchronises it. *)
  let h = setup ~n:3 ~seed:97 (factory "passive") in
  let client = List.hd h.clients in
  let committed = ref 0 in
  client_loop h ~client ~count:10
    ~make_request:(fun _ -> incr_req h ~client "x")
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then incr committed);
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 10) (fun () ->
         Network.partition h.net [ 2 ]));
  ignore
    (Engine.schedule h.engine ~after:(Simtime.of_ms 2_000) (fun () ->
         Network.heal h.net));
  run_for h 120_000;
  Alcotest.(check int) "all commit through the partition" 10 !committed;
  check_converged h "partition heal (all three replicas)";
  List.iter
    (fun s -> Alcotest.(check int) "state" 10 (fst (Store.Kv.read s "x")))
    (stores h)

let test_lazy_ue_split_brain_reconciles () =
  (* Both sides of a partition keep committing (lazy never blocks); the
     after-commit order reconciles everything once the partition heals. *)
  let h =
    setup ~n:3 ~m:2 ~seed:101
      (factory "lazy-ue" ~set:[ ("abcast_impl", "consensus") ])
  in
  let c0 = List.nth h.clients 0 (* local replica 0 *) in
  let c1 = List.nth h.clients 1 (* local replica 1 *) in
  (* Partition replica 1 together with its client. *)
  Network.partition h.net [ 1; c1 ];
  let commits = ref 0 in
  List.iteri
    (fun side client ->
      client_loop h ~client ~count:5
        ~make_request:(fun i ->
          Store.Operation.request h.net ~client
            [ Store.Operation.Write ("x", (100 * (side + 1)) + i) ])
        ~on_reply:(fun reply ->
          if reply.Core.Technique.committed then incr commits))
    [ c0; c1 ];
  run_for h 1_000;
  Alcotest.(check int) "both sides commit during the partition" 10 !commits;
  Alcotest.(check bool) "sides diverged" false
    (Core.Convergence.converged (stores h));
  Network.heal h.net;
  run_for h 120_000;
  check_converged h "split brain reconciled"

(* ------------------------------------------------------------------ *)
(* Observability: span conformance and exporters                      *)
(* ------------------------------------------------------------------ *)

(* Every committed transaction must yield a complete, well-nested span
   sequence matching the technique's Figure 16 row. *)
let test_span_conformance (_, (info : Core.Technique.info), factory) () =
  let h = setup factory in
  let client = List.hd h.clients in
  (* Semi-active only shows its AC phase on a non-deterministic choice. *)
  let ops =
    if String.length info.name >= 4 && String.sub info.name 0 4 = "Semi" then
      [ Store.Operation.Write_random "x" ]
    else [ Store.Operation.Incr ("x", 1) ]
  in
  let committed_rids = ref [] in
  client_loop h ~client ~count:4
    ~make_request:(fun _ -> Store.Operation.request h.net ~client ops)
    ~on_reply:(fun reply ->
      if reply.Core.Technique.committed then
        committed_rids := reply.Core.Technique.rid :: !committed_rids);
  run_for h 30_000;
  let spans = h.inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Engine.now h.engine);
  Alcotest.(check bool) "some transactions committed" true
    (!committed_rids <> []);
  List.iter
    (fun rid ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rid %d responded" info.name rid)
        true
        (Core.Phase_span.responded spans ~rid);
      Alcotest.(check (list phase))
        (Printf.sprintf "%s rid %d span signature" info.name rid)
        info.expected_phases
        (Core.Phase_span.signature spans ~rid);
      Alcotest.(check bool)
        (Printf.sprintf "%s rid %d well nested" info.name rid)
        true
        (Core.Phase_span.well_nested spans ~rid))
    !committed_rids

(* Minimal JSON validity checker — parses the full grammar and accepts
   iff the whole string is exactly one JSON value (no yojson in the
   environment, and the exporters hand-build their output). *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let exception Bad in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with Some d when d = c -> advance () | _ -> raise Bad
  in
  let digits () =
    let saw = ref false in
    let rec go () =
      match peek () with
      | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    if not !saw then raise Bad
  in
  let str () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise Bad
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> raise Bad
              done
          | _ -> raise Bad);
          go ()
      | Some c when Char.code c < 0x20 -> raise Bad
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> raise Bad
  and literal lit = String.iter expect lit
  and number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  and obj () =
    expect '{';
    skip_ws ();
    match peek () with
    | Some '}' -> advance ()
    | _ ->
        let rec members () =
          skip_ws ();
          str ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
              advance ();
              members ()
          | Some '}' -> advance ()
          | _ -> raise Bad
        in
        members ()
  and arr () =
    expect '[';
    skip_ws ();
    match peek () with
    | Some ']' -> advance ()
    | _ ->
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
              advance ();
              elems ()
          | Some ']' -> advance ()
          | _ -> raise Bad
        in
        elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Bad -> false

let contains ~sub s =
  let sn = String.length sub and n = String.length s in
  let rec go i = i + sn <= n && (String.sub s i sn = sub || go (i + 1)) in
  go 0

let export_one_txn key =
  let h = setup (factory key) in
  let client = List.hd h.clients in
  let slot =
    submit h ~client
      (Store.Operation.request h.net ~client [ Store.Operation.Incr ("x", 1) ])
  in
  run_for h 10_000;
  Alcotest.(check bool) (key ^ " answered") true (!slot <> None);
  let spans = h.inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Engine.now h.engine);
  Core.Phase_span.collector spans

let test_chrome_export_valid key () =
  let json = Sim.Trace_export.to_chrome (export_one_txn key) in
  Alcotest.(check bool) (key ^ " chrome JSON parses") true (json_valid json);
  Alcotest.(check bool) (key ^ " wraps traceEvents") true
    (String.length json >= 16 && String.sub json 0 16 = "{\"traceEvents\":[");
  Alcotest.(check bool) (key ^ " has complete events") true
    (contains ~sub:"\"ph\":\"X\"" json);
  Alcotest.(check bool) (key ^ " has metadata events") true
    (contains ~sub:"\"ph\":\"M\"" json)

let test_jsonl_export_valid key () =
  let jsonl = Sim.Trace_export.to_jsonl (export_one_txn key) in
  let lines = String.split_on_char '\n' jsonl in
  Alcotest.(check bool) (key ^ " has span lines") true (List.length lines >= 3);
  List.iter
    (fun line ->
      Alcotest.(check bool) (key ^ " line parses: " ^ line) true
        (json_valid line))
    lines

(* One active-replication transaction at a fixed seed, flushed; returns
   the span collector. It is the run's first request, so its rid is 1. *)
let golden_active_spans () =
  let engine = Engine.create ~seed:3 () in
  let net = Network.create engine ~n:4 Network.default_config in
  let inst = active_factory net ~replicas:[ 0; 1; 2 ] ~clients:[ 3 ] in
  let request =
    Store.Operation.request net ~client:3 [ Store.Operation.Incr ("x", 1) ]
  in
  inst.Core.Technique.submit ~client:3 request (fun _ -> ());
  ignore (Engine.run ~until:(Simtime.of_sec 10.) engine);
  Core.Phase_span.finalize inst.Core.Technique.spans ~at:(Engine.now engine);
  Core.Phase_span.collector inst.Core.Technique.spans

(* Golden JSONL for that transaction: the simulator is deterministic and
   rids are numbered per run, so the whole trace — rid and timings
   included — is reproducible bit for bit whatever ran before in the
   process. Message spans (covered by test_explain's goldens) are
   filtered out to keep this golden about the phase skeleton; their
   interleaving still shifts the phase span ids, which is part of what
   is pinned here. *)
let test_golden_jsonl_active () =
  let out = Sim.Trace_export.to_jsonl (golden_active_spans ()) in
  let phases =
    String.split_on_char '\n' out
    |> List.filter (fun line -> not (contains ~sub:{|"name":"msg:|} line))
    |> String.concat "\n"
  in
  let golden =
    String.concat "\n"
      [
        {|{"type":"span","id":0,"trace":1,"name":"txn","track":"client","start_us":0,"stop_us":3334}|};
        {|{"type":"span","id":1,"trace":1,"name":"RE","parent":0,"track":"client","start_us":0,"stop_us":0}|};
        {|{"type":"span","id":2,"trace":1,"name":"SC","parent":0,"track":"client","start_us":0,"stop_us":2638,"events":[{"at_us":0,"note":"atomic broadcast to the group (merged with RE)"}]}|};
        {|{"type":"span","id":12,"trace":1,"name":"EX","parent":0,"track":2,"start_us":2638,"stop_us":3334,"events":[{"at_us":2638,"track":2,"note":"deterministic execution in delivery order"},{"at_us":2654,"track":0,"note":"deterministic execution in delivery order"},{"at_us":2704,"track":1,"note":"deterministic execution in delivery order"}]}|};
        {|{"type":"span","id":16,"trace":1,"name":"END","parent":0,"track":"client","start_us":3334,"stop_us":3334}|};
      ]
  in
  Alcotest.(check string) "golden active JSONL" golden phases

(* The full Chrome export of the same transaction, byte for byte: process
   and thread metadata, "X" events (notes included, message spans too)
   and the "s"/"f" flow pair of every delivered message. *)
let test_golden_chrome_active () =
  let events =
    [
        {|{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"txn 1"}}|};
        {|{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"client"}}|};
        {|{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"replica 3"}}|};
        {|{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"replica 0"}}|};
        {|{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"replica 2"}}|};
        {|{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"replica 1"}}|};
        {|{"name":"txn","cat":"phase","ph":"X","ts":0,"dur":3334,"pid":1,"tid":0,"args":{"trace":1}}|};
        {|{"name":"RE","cat":"phase","ph":"X","ts":0,"dur":1,"pid":1,"tid":0,"args":{"trace":1}}|};
        {|{"name":"SC","cat":"phase","ph":"X","ts":0,"dur":2638,"pid":1,"tid":0,"args":{"trace":1,"notes":["atomic broadcast to the group (merged with RE)"]}}|};
        {|{"name":"msg:Data(Inject(Req))","cat":"phase","ph":"X","ts":0,"dur":503,"pid":1,"tid":4,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Inject(Req))","cat":"phase","ph":"X","ts":0,"dur":682,"pid":1,"tid":4,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Inject(Req))","cat":"phase","ph":"X","ts":0,"dur":1426,"pid":1,"tid":4,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order)","cat":"phase","ph":"X","ts":503,"dur":1464,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order)","cat":"phase","ph":"X","ts":503,"dur":932,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order_ack)","cat":"phase","ph":"X","ts":1435,"dur":835,"pid":1,"tid":3,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order_ack)","cat":"phase","ph":"X","ts":1435,"dur":1269,"pid":1,"tid":3,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order_ack)","cat":"phase","ph":"X","ts":1967,"dur":687,"pid":1,"tid":2,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Data(Order_ack)","cat":"phase","ph":"X","ts":1967,"dur":671,"pid":1,"tid":2,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"EX","cat":"phase","ph":"X","ts":2638,"dur":696,"pid":1,"tid":3,"args":{"trace":1,"notes":["deterministic execution in delivery order","deterministic execution in delivery order","deterministic execution in delivery order"]}}|};
        {|{"name":"msg:Reply","cat":"phase","ph":"X","ts":2638,"dur":709,"pid":1,"tid":3,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Reply","cat":"phase","ph":"X","ts":2654,"dur":1168,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Reply","cat":"phase","ph":"X","ts":2704,"dur":630,"pid":1,"tid":2,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"END","cat":"phase","ph":"X","ts":3334,"dur":1,"pid":1,"tid":0,"args":{"trace":1}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":5503,"dur":1031,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":5503,"dur":693,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":5503,"dur":1199,"pid":1,"tid":1,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":5682,"dur":664,"pid":1,"tid":2,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":5682,"dur":1203,"pid":1,"tid":2,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":6426,"dur":610,"pid":1,"tid":3,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"msg:Ack","cat":"phase","ph":"X","ts":6426,"dur":1253,"pid":1,"tid":3,"args":{"trace":1,"notes":["send","deliver"]}}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"s","id":3,"ts":0,"pid":1,"tid":4}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"f","bp":"e","id":3,"ts":503,"pid":1,"tid":1}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"s","id":4,"ts":0,"pid":1,"tid":4}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"f","bp":"e","id":4,"ts":682,"pid":1,"tid":2}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"s","id":5,"ts":0,"pid":1,"tid":4}|};
        {|{"name":"Data(Inject(Req))","cat":"msg","ph":"f","bp":"e","id":5,"ts":1426,"pid":1,"tid":3}|};
        {|{"name":"Data(Order)","cat":"msg","ph":"s","id":6,"ts":503,"pid":1,"tid":1}|};
        {|{"name":"Data(Order)","cat":"msg","ph":"f","bp":"e","id":6,"ts":1967,"pid":1,"tid":2}|};
        {|{"name":"Data(Order)","cat":"msg","ph":"s","id":7,"ts":503,"pid":1,"tid":1}|};
        {|{"name":"Data(Order)","cat":"msg","ph":"f","bp":"e","id":7,"ts":1435,"pid":1,"tid":3}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"s","id":8,"ts":1435,"pid":1,"tid":3}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"f","bp":"e","id":8,"ts":2270,"pid":1,"tid":1}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"s","id":9,"ts":1435,"pid":1,"tid":3}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"f","bp":"e","id":9,"ts":2704,"pid":1,"tid":2}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"s","id":10,"ts":1967,"pid":1,"tid":2}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"f","bp":"e","id":10,"ts":2654,"pid":1,"tid":1}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"s","id":11,"ts":1967,"pid":1,"tid":2}|};
        {|{"name":"Data(Order_ack)","cat":"msg","ph":"f","bp":"e","id":11,"ts":2638,"pid":1,"tid":3}|};
        {|{"name":"Reply","cat":"msg","ph":"s","id":13,"ts":2638,"pid":1,"tid":3}|};
        {|{"name":"Reply","cat":"msg","ph":"f","bp":"e","id":13,"ts":3347,"pid":1,"tid":4}|};
        {|{"name":"Reply","cat":"msg","ph":"s","id":14,"ts":2654,"pid":1,"tid":1}|};
        {|{"name":"Reply","cat":"msg","ph":"f","bp":"e","id":14,"ts":3822,"pid":1,"tid":4}|};
        {|{"name":"Reply","cat":"msg","ph":"s","id":15,"ts":2704,"pid":1,"tid":2}|};
        {|{"name":"Reply","cat":"msg","ph":"f","bp":"e","id":15,"ts":3334,"pid":1,"tid":4}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":17,"ts":5503,"pid":1,"tid":1}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":17,"ts":6534,"pid":1,"tid":4}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":18,"ts":5503,"pid":1,"tid":1}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":18,"ts":6196,"pid":1,"tid":3}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":19,"ts":5503,"pid":1,"tid":1}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":19,"ts":6702,"pid":1,"tid":2}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":20,"ts":5682,"pid":1,"tid":2}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":20,"ts":6346,"pid":1,"tid":4}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":21,"ts":5682,"pid":1,"tid":2}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":21,"ts":6885,"pid":1,"tid":3}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":22,"ts":6426,"pid":1,"tid":3}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":22,"ts":7036,"pid":1,"tid":4}|};
        {|{"name":"Ack","cat":"msg","ph":"s","id":23,"ts":6426,"pid":1,"tid":3}|};
        {|{"name":"Ack","cat":"msg","ph":"f","bp":"e","id":23,"ts":7679,"pid":1,"tid":2}|};
    ]
  in
  let golden =
    "{\"traceEvents\":[" ^ String.concat "," events ^ "],\"displayTimeUnit\":\"ms\"}"
  in
  Alcotest.(check string) "golden active Chrome" golden
    (Sim.Trace_export.to_chrome (golden_active_spans ()))

(* Golden digests of a mid-size traced run (lazy-primary, n=5, 4 clients
   x 10 transactions, seed 11): 40 traces, so the Chrome export carries
   metadata rows for many processes and flow events for every delivered
   message, which the one-transaction goldens above do not reach. The
   digests pin every byte of both exports. *)
let test_golden_digest_lazy_run () =
  let factory =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find "lazy-primary"))
  in
  let _, inst =
    Workload.Runner.run_with_instance ~seed:11 ~n_replicas:5 ~n_clients:4
      ~spec:{ Workload.Spec.default with txns_per_client = 10 }
      factory
  in
  let spans = Core.Phase_span.collector inst.Core.Technique.spans in
  let digest s = (String.length s, Digest.to_hex (Digest.string s)) in
  Alcotest.(check int) "spans" 415 (Sim.Span.count spans);
  Alcotest.(check int) "traces" 40 (List.length (Sim.Span.traces spans));
  Alcotest.(check (pair int string)) "chrome digest"
    (108089, "78da80b23338a6e7805b06967c79e809")
    (digest (Sim.Trace_export.to_chrome spans));
  Alcotest.(check (pair int string)) "jsonl digest"
    (79429, "d05ea3d9995b7e3226d83c1de03ceb31")
    (digest (Sim.Trace_export.to_jsonl spans))

(* A traced lazy-primary run builds each distinct message-span name
   once on its network, however many messages of that kind it sends,
   and every span of one kind shares that one string. *)
let test_msg_span_names_once () =
  let factory =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find "lazy-primary"))
  in
  let net = ref None in
  let _, inst =
    Workload.Runner.run_with_instance ~seed:11 ~n_replicas:5 ~n_clients:4
      ~spec:{ Workload.Spec.default with txns_per_client = 10 }
      (fun network ~replicas ~clients ->
        net := Some network;
        factory network ~replicas ~clients)
  in
  let spans = Core.Phase_span.collector inst.Core.Technique.spans in
  let interned = Hashtbl.create 16 and sends = ref 0 in
  for id = 0 to Sim.Span.count spans - 1 do
    if Sim.Msg_dag.is_msg_span spans id then begin
      incr sends;
      let name = Sim.Span.name_of spans id in
      match Hashtbl.find_opt interned name with
      | Some first ->
          Alcotest.(check bool) ("one string for " ^ name) true (first == name)
      | None -> Hashtbl.add interned name name
    end
  done;
  Alcotest.(check bool) "many sends per kind" true (!sends > 4 * Hashtbl.length interned);
  Alcotest.(check int) "names built" (Hashtbl.length interned)
    (Sim.Network.span_names_built (Option.get !net))

(* ------------------------------------------------------------------ *)
(* Suite assembly                                                     *)
(* ------------------------------------------------------------------ *)

let generic_suite =
  List.concat_map
    (fun ((key, _, _) as entry) ->
      [
        tc (key ^ ": commit+converge") (test_commit_and_converge entry);
        tc (key ^ ": figure 16 row") (test_figure16_signature entry);
        tc (key ^ ": sequential counter") (test_sequential_counter entry);
        tc (key ^ ": concurrent updates") (test_concurrent_updates entry);
        tc (key ^ ": multi-op transactions") (test_multi_op_transactions entry);
        tc (key ^ ": span conformance") (test_span_conformance entry);
      ])
    registry_entries

(* The flat mark view of the semi-active non-deterministic probe
   ([replisim trace -t semi-active --nondet]): EX on three replicas at
   one instant, the leader's AC folded between them, and the opening
   notes of RE/SC. Pinned so the view derived from the span tree cannot
   drift from the mark log it replaced. *)
let test_golden_marks_semi_active () =
  let p =
    Workload.Builder.probe ~seed:3 ~n:3
      ~ops:[ Store.Operation.Write_random "x" ]
      ~until:(Simtime.of_sec 10.)
      (factory "semi-active")
  in
  let listing =
    Format.asprintf "%a" Core.Phase_span.pp_marks
      (Core.Phase_span.marks p.Workload.Builder.p_inst.Core.Technique.spans
         ~rid:p.Workload.Builder.p_rid)
  in
  Alcotest.(check string) "pp_marks"
    (String.concat "\n"
       [
         "     0us  RE   client     ";
         "     0us  SC   client     atomic broadcast to the group (merged with RE)";
         " 3.000ms  EX   replica 2  execution in delivery order";
         " 3.000ms  EX   replica 0  execution in delivery order";
         " 3.000ms  AC   replica 0  leader resolves non-deterministic choice via VSCAST";
         " 3.000ms  EX   replica 1  execution in delivery order";
         " 6.000ms  END  client     ";
         "";
       ])
    listing

let observability_suite =
  [
    tc "golden marks: semi-active, non-deterministic"
      test_golden_marks_semi_active;
    tc "chrome export: active" (test_chrome_export_valid "active");
    tc "chrome export: eager-ue-locking"
      (test_chrome_export_valid "eager-ue-locking");
    tc "jsonl export: active" (test_jsonl_export_valid "active");
    tc "jsonl export: lazy-primary" (test_jsonl_export_valid "lazy-primary");
    tc "golden jsonl: active, fixed seed" test_golden_jsonl_active;
    tc "golden chrome: active, fixed seed" test_golden_chrome_active;
    tc "golden digests: lazy-primary run" test_golden_digest_lazy_run;
    tc "message-span names built once per network" test_msg_span_names_once;
  ]

let property_suite =
  List.map
    (fun entry -> QCheck_alcotest.to_alcotest (prop_strong_technique entry))
    registry_entries

let () =
  Alcotest.run "protocols"
    [
      ("generic", generic_suite);
      ("observability", observability_suite);
      ("properties", property_suite);
      ("crash-fuzz", crash_fuzz_suite);
      ( "failures",
        [
          tc "semi-active leader crash" test_semi_active_leader_crash;
          tc "passive cascading crashes" test_passive_cascading_crashes;
          tc "eager-primary site aborts" test_eager_primary_site_aborts;
          tc "active under message loss" test_active_under_message_loss;
          tc "lazy-primary read-your-writes" test_lazy_primary_read_your_writes_at_primary;
          tc "consensus-based ordering stacks" test_consensus_based_abcast_protocols;
        ] );
      ("soak", [ tc "7 replicas, mixed workload, crash" test_soak_eager_ue_abcast ]);
      ( "recovery",
        [
          tc "passive backup rejoin + state transfer" test_passive_backup_recovery;
          tc "passive primary crash, recover, rejoin" test_passive_primary_recovery;
          tc "passive partition heals" test_passive_partition_heals;
          tc "lazy-ue split brain reconciles" test_lazy_ue_split_brain_reconciles;
        ] );
      ( "active",
        [
          tc "masks replica crash" test_active_masks_crash;
          tc "linearizable" test_active_linearizable;
          tc "local reads: SC but not linearizable"
            test_active_local_reads_sequentially_consistent;
        ] );
      ( "passive",
        [
          tc "primary failover" test_passive_failover;
          tc "nondeterminism converges" test_passive_nondeterminism_converges;
        ] );
      ( "semi-active",
        [ tc "nondeterminism converges" test_semi_active_nondeterminism_converges ]
      );
      ( "semi-passive",
        [ tc "coordinator crash" test_semi_passive_coordinator_crash ] );
      ( "eager-primary",
        [
          tc "failover" test_eager_primary_failover;
          tc "interactive EX/AC loop" test_eager_primary_interactive_loop;
          tc "reply outruns the decision"
            test_eager_primary_reply_outruns_decision;
          tc "recover + state transfer from an in-doubt donor"
            (test_in_doubt_donor "eager-primary");
        ] );
      ( "eager-ue-locking",
        [
          tc "deadlock" test_eager_ue_locking_deadlock;
          tc "rowa cheaper" test_eager_ue_locking_rowa_cheaper;
          tc "majority lock quorum" test_eager_ue_locking_quorum;
          tc "recover + state transfer from an in-doubt donor"
            (test_in_doubt_donor "eager-ue-locking");
        ] );
      ( "lazy-primary",
        [
          tc "stale reads then convergence"
            test_lazy_primary_stale_reads_then_convergence;
          tc "channel acks follow the network" test_lazy_primary_acks_follow_network;
        ] );
      ( "lazy-ue",
        [ tc "conflict reconciliation" test_lazy_ue_conflict_reconciliation ] );
      ( "certification",
        [
          tc "aborts on conflict" test_certification_aborts_conflict;
          tc "optimistic variant safe" test_optimistic_certification_correct;
        ] );
      ( "eager-ue-abcast",
        [ tc "delegate crash" test_eager_ue_abcast_delegate_crash ] );
    ]
