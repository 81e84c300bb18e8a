(* Message-cost measurement: golden traces for the §5 matrix and the
   structural soundness of the causal message DAG. Mirrors the harness
   behind `replisim explain`: constant 1 ms links, one client, one
   update transaction, everything measured from message spans. *)

(* Tuple view of the registry under default configuration, for the
   sweeps below. *)
let registry_entries =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      (e.Protocols.Registry.key, e.info, Protocols.Registry.default_factory e))
    Protocols.Registry.all

let run_one ?(n = 3) ?(seed = 7) ?(drop = 0.0) key =
  let _, info, factory =
    List.find (fun (k, _, _) -> k = key) registry_entries
  in
  let engine = Sim.Engine.create ~seed () in
  let config =
    {
      Sim.Network.latency = Sim.Network.Constant (Sim.Simtime.of_ms 1);
      drop_probability = drop;
      passthrough = false;
    }
  in
  let net = Sim.Network.create engine ~n:(n + 1) config in
  let replicas = List.init n Fun.id in
  let client = n in
  let inst = factory net ~replicas ~clients:[ client ] in
  let request =
    Store.Operation.request net ~client [ Store.Operation.Incr ("x", 1) ]
  in
  inst.Core.Technique.submit ~client request (fun _ -> ());
  ignore (Sim.Engine.run ~until:(Sim.Simtime.of_sec 2.) engine);
  let spans = inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Sim.Engine.now engine);
  let collector = Core.Phase_span.collector spans in
  let rid = request.Store.Operation.rid in
  (info, collector, rid, Sim.Msg_dag.analyze collector ~trace:rid ~clients:[ client ])

let labels (path : Sim.Msg_dag.msg list) =
  List.map (fun (m : Sim.Msg_dag.msg) -> m.Sim.Msg_dag.label) path

(* Golden trace: active replication at n=3, seed 7. The counts are exact
   — any change to the group stack's message pattern must show up here. *)
let test_golden_active () =
  let _, collector, rid, s = run_one "active" in
  Alcotest.(check bool) "replied" true s.Sim.Msg_dag.replied;
  Alcotest.(check int) "messages" 14 s.Sim.Msg_dag.messages;
  Alcotest.(check int) "steps" 4 s.Sim.Msg_dag.steps;
  Alcotest.(check (list string)) "critical path"
    [ "Data(Inject(Req))"; "Data(Order)"; "Data(Order_ack)"; "Reply" ]
    (labels s.Sim.Msg_dag.critical_path);
  Alcotest.(check bool) "causally sound" true
    (Sim.Msg_dag.causally_sound collector ~trace:rid)

(* Golden trace: eager primary copy — deeper chain (propagation plus 2PC
   before the reply). 14 messages: the request, two Propagates, two
   acks, six 2PC messages, the reply and the broadcast's two stability
   notices (16 while reliable broadcast relayed every delivery). *)
let test_golden_eager_primary () =
  let _, collector, rid, s = run_one "eager-primary" in
  Alcotest.(check bool) "replied" true s.Sim.Msg_dag.replied;
  Alcotest.(check int) "messages" 14 s.Sim.Msg_dag.messages;
  Alcotest.(check int) "steps" 6 s.Sim.Msg_dag.steps;
  Alcotest.(check (list string)) "critical path"
    [
      "Data(Ereq)";
      "Data(Rb(Propagate))";
      "Data(Propagate_ack)";
      "Data(Prepare)";
      "Data(Vote)";
      "Reply";
    ]
    (labels s.Sim.Msg_dag.critical_path);
  Alcotest.(check bool) "causally sound" true
    (Sim.Msg_dag.causally_sound collector ~trace:rid)

(* The full matrix: every technique's §5 verdict holds — the check
   `ci/check.sh` enforces through `replisim explain --check`, here across
   two cluster sizes. *)
let explain ~n key =
  let entry = Option.get (Protocols.Registry.find key) in
  Workload.Builder.explain ~n entry (Protocols.Registry.default_config entry)

let test_matrix () =
  List.iter
    (fun n ->
      List.iter
        (fun (key, _, _) ->
          let v = Workload.Builder.section5 (explain ~n key) in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d %s: %s" key n v.oracle v.detail)
            true v.ok)
        registry_entries)
    [ 3; 4 ]

(* On a passthrough network the primary-copy techniques send the
   paper's pattern: lazy primary copy the request, the n-1 refreshes and
   the reply (n+1); eager primary copy 5n-3 — no stability notice, since
   a loss-free channel needs no relay to back it. *)
let test_passthrough_primary_copy () =
  List.iter
    (fun n ->
      List.iter
        (fun (key, expected) ->
          let entry = Option.get (Protocols.Registry.find key) in
          let p =
            Workload.Builder.probe ~n
              ~net:{ Sim.Network.default_config with passthrough = true }
              (Protocols.Registry.default_factory entry)
          in
          let _, _, s = Workload.Builder.probe_summary p in
          Alcotest.(check int)
            (Printf.sprintf "%s n=%d passthrough messages" key n)
            expected s.messages)
        [ ("lazy-primary", n + 1); ("eager-primary", (5 * n) - 3) ])
    [ 3; 4; 5 ]

(* A technique that claims one message more than it sends fails the §5
   verdict, and the detail shows both counts. *)
let test_off_by_one () =
  let x = explain ~n:3 "active" in
  let info = x.x_info in
  let v =
    Workload.Builder.section5
      {
        x with
        x_info =
          {
            info with
            expected_messages = (fun ~n -> info.expected_messages ~n + 1);
          };
      }
  in
  Alcotest.(check (triple string bool string))
    "off-by-one expectation"
    ("section5", false, "14/15 messages, 4/4 steps (observed/expected)")
    (v.oracle, v.ok, v.detail)

(* Property: whatever the seed, technique and loss rate, the message DAG
   stays structurally sound — every delivered message span has a parent
   in its own trace, and a dropped message causes nothing. With loss
   the transaction may never resolve; soundness must hold regardless. *)
let prop_causally_sound =
  QCheck.Test.make ~count:40 ~name:"message DAG causally sound"
    QCheck.(
      triple (int_bound 9999)
        (int_bound (List.length registry_entries - 1))
        (int_bound 25))
    (fun (seed, ti, drop_pct) ->
      let key, _, _ = List.nth registry_entries ti in
      let drop = float_of_int drop_pct /. 100. in
      let _, collector, rid, s = run_one ~seed ~drop key in
      Sim.Msg_dag.causally_sound collector ~trace:rid
      && (not (drop = 0.) || s.Sim.Msg_dag.replied))

(* Drops really appear in the DAG as terminal nodes: with certain loss,
   every message span is dropped and none resolves the transaction. *)
let test_total_loss () =
  let _, collector, rid, s = run_one ~drop:1.0 "active" in
  Alcotest.(check bool) "no reply" false s.Sim.Msg_dag.replied;
  Alcotest.(check int) "no delivery" 0 s.Sim.Msg_dag.messages;
  Alcotest.(check bool) "dropped some" true (s.Sim.Msg_dag.dropped > 0);
  Alcotest.(check int) "no critical path" 0
    (List.length s.Sim.Msg_dag.critical_path);
  Alcotest.(check bool) "causally sound" true
    (Sim.Msg_dag.causally_sound collector ~trace:rid)

let () =
  Alcotest.run "explain"
    [
      ( "golden",
        [
          Alcotest.test_case "active n=3 seed=7" `Quick test_golden_active;
          Alcotest.test_case "eager-primary n=3 seed=7" `Quick
            test_golden_eager_primary;
          Alcotest.test_case "matrix n=3,4" `Quick test_matrix;
          Alcotest.test_case "primary copy under passthrough" `Quick
            test_passthrough_primary_copy;
          Alcotest.test_case "off-by-one expectation fails" `Quick
            test_off_by_one;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_causally_sound;
          Alcotest.test_case "total loss" `Quick test_total_loss;
        ] );
    ]
