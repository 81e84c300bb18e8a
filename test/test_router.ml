(* The client-side routing tier: router-off schedule preservation
   (pinned pre-refactor counters), read/write splitting and session
   accounting, the sticky read-your-writes property over lazy-primary
   (randomized) and its non-sticky counterpart (pinned cases), failover
   retry under a crash schedule, and the flash-crowd session phases. *)

let tc name f = Alcotest.test_case name `Quick f

let factory_of ?(config = []) name =
  let entry = Option.get (Protocols.Registry.find name) in
  Protocols.Registry.configure_exn entry config

let run_default ?router ?flash name =
  let spec = Workload.Builder.spec ?flash () in
  Workload.Runner.run ~spec ?router (factory_of name)

(* ---- router off: the pre-refactor request path, byte for byte ------- *)

(* The refactor's contract: with no router configured, the Runner's
   dispatch IS the old direct inst.submit call and nothing new is
   scheduled, so the event schedule — and with it every deterministic
   counter — must match the pre-refactor binary exactly. These triples
   were recorded from the tree before the routing tier existed (defaults:
   seed 11, 3 replicas, 4 clients, 50 txns/client, closed loop); the
   lazy-primary and eager-primary ones again when reliable broadcast
   stopped relaying every delivery (from 2352 events and 1848 messages,
   and 5631 and 3932), the eager-primary and active ones when channel
   acks began to ride on reverse data (from 4835 and 3100, and 100844
   and 46050), and again when runs began to end with their work instead
   of sending heartbeats to the deadline (from 4599 and 2466, and 98831
   and 43684), and when a node's messages to itself stopped crossing the
   network and the sequencer's Order became its ack (from 3315 and 2471,
   and 5205 and 4569), and when a one-way link stopped acking each
   message and every ack waited half a retransmission timeout (from
   1535 and 1020, 3155 and 2129, and 3601 and 3046). *)
let test_router_off_schedule_preserved () =
  List.iter
    (fun (name, committed, events, messages) ->
      let r = run_default name in
      Alcotest.(check int) (name ^ ": committed") committed
        r.Workload.Runner.committed;
      Alcotest.(check int) (name ^ ": engine events") events
        r.Workload.Runner.events;
      Alcotest.(check int) (name ^ ": network messages") messages
        r.Workload.Runner.messages;
      Alcotest.(check bool) (name ^ ": no router stats on the result") true
        (r.Workload.Runner.router = None))
    [
      ("lazy-primary", 200, 1405, 780);
      ("eager-primary", 200, 3042, 1880);
      ("active", 200, 3434, 3001);
    ]

(* ---- read/write splitting and session accounting -------------------- *)

let test_router_splits_reads_and_writes () =
  let r =
    run_default ~router:Workload.Router.default_config "lazy-primary"
  in
  let st = Option.get r.Workload.Runner.router in
  Alcotest.(check int) "every request routed exactly once"
    (r.Workload.Runner.committed + r.Workload.Runner.aborted)
    (st.Workload.Router.reads_routed + st.Workload.Router.writes_routed
   + st.Workload.Router.fallback_reads);
  Alcotest.(check bool) "both classes present" true
    (st.Workload.Router.reads_routed > 0
    && st.Workload.Router.writes_routed > 0);
  Alcotest.(check bool) "non-sticky routes no sticky reads" true
    (st.Workload.Router.sticky_reads = 0);
  Alcotest.(check int) "one session per client" 4
    (List.length st.Workload.Router.sessions);
  let totals =
    List.fold_left
      (fun (rd, wr) (s : Workload.Router.session_view) ->
        (rd + s.v_reads, wr + s.v_writes))
      (0, 0) st.Workload.Router.sessions
  in
  Alcotest.(check (pair int int))
    "per-session counters sum to the totals"
    (st.Workload.Router.reads_routed, st.Workload.Router.writes_routed)
    totals;
  Alcotest.(check bool) "run outcome unharmed by routing" true
    (r.Workload.Runner.committed > 0
    && r.Workload.Runner.converged && r.Workload.Runner.serializable)

let test_sticky_pins_sessions () =
  let r =
    run_default
      ~router:
        { Workload.Router.default_config with Workload.Router.sticky = true }
      "lazy-primary"
  in
  let st = Option.get r.Workload.Runner.router in
  Alcotest.(check bool) "stats echo the sticky config" true
    st.Workload.Router.sticky;
  Alcotest.(check bool) "most reads hit the session pin" true
    (st.Workload.Router.sticky_reads > st.Workload.Router.reads_routed / 2);
  List.iter
    (fun (s : Workload.Router.session_view) ->
      Alcotest.(check bool)
        (Printf.sprintf "client %d ends pinned" s.v_client)
        true (s.v_pinned <> None))
    st.Workload.Router.sessions

(* ---- sticky => read-your-writes over lazy-primary -------------------- *)

(* The headline property: over lazy-primary with a propagation delay long
   enough to expose staleness, a sticky routed run measures zero
   read-your-writes violations and drains for every seed and client
   count. The audit layer is the checker. *)
let ryw_factory =
  factory_of "lazy-primary" ~config:[ ("propagation_delay", "20ms") ]

let audited ~sticky ~seed ~clients ~txns =
  let spec = Workload.Builder.spec ~updates:0.5 ~txns ~keys:40 () in
  let result =
    Workload.Runner.run ~seed ~n_replicas:3 ~n_clients:clients ~spec
      ~audit:true
      ~router:{ Workload.Router.default_config with Workload.Router.sticky }
      ryw_factory
  in
  Option.get result.Workload.Runner.audit

let prop_sticky_restores_ryw =
  QCheck.Test.make
    ~name:"lazy-primary: sticky routing measures 0 ryw violations and drains"
    ~count:6
    QCheck.(pair (int_range 0 10_000) (pair (int_range 3 6) (int_range 20 40)))
    (fun (seed, (clients, txns)) ->
      let sticky = audited ~sticky:true ~seed ~clients ~txns in
      sticky.Workload.Audit.ryw_violations = 0 && sticky.Workload.Audit.drained)

(* The other side is not universal: a short non-sticky run can happen to
   read nothing stale (seed 42 with 3 clients and 20 transactions
   measures 0), so "non-sticky > 0" is pinned on fixed (seed, clients,
   txns) cases spread over the property's range instead of drawn. *)
let test_nonsticky_violates_ryw () =
  List.iter
    (fun (seed, clients, txns) ->
      let loose = audited ~sticky:false ~seed ~clients ~txns in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d, %d clients, %d txns: violations > 0" seed
           clients txns)
        true
        (loose.Workload.Audit.ryw_violations > 0))
    [
      (0, 3, 20);
      (1, 6, 40);
      (11, 4, 30);
      (42, 3, 40);
      (4711, 5, 20);
      (10_000, 6, 30);
    ]

(* ---- failover retry -------------------------------------------------- *)

(* A read in flight to a replica that crashes under it gets no reply;
   the router must resend it elsewhere after the timeout and the client
   still sees an answer. The schedule below is one (deterministic) such
   interleaving, found by scanning crash times (crash at 60 ms and
   recovery at 120 ms until channel acks rode on data, 61 and 121 ms
   until the failure detector stopped sending heartbeats, 58 and 118 ms
   until a node's messages to itself stopped crossing the network, 62
   and 122 ms until a one-way link stopped acking each message, 64 and
   124 ms since; it fails with the resend taken out). *)
let test_failover_retry_answers_reads () =
  let spec = Workload.Builder.spec () in
  let r =
    Workload.Runner.run ~spec ~router:Workload.Router.default_config
      ~faults:
        Workload.Runner.
          [
            Crash { at = Sim.Simtime.of_ms 64; replica = 0 };
            Recover { at = Sim.Simtime.of_ms 124; replica = 0 };
          ]
      (factory_of "active")
  in
  let st = Option.get r.Workload.Runner.router in
  Alcotest.(check bool) "at least one retry fired" true
    (st.Workload.Router.retries >= 1);
  Alcotest.(check bool) "at least one read survived via failover" true
    (st.Workload.Router.failovers >= 1);
  Alcotest.(check int) "no read was abandoned" 0
    st.Workload.Router.gave_up;
  Alcotest.(check int) "every request answered" 0
    r.Workload.Runner.unanswered

(* ---- flash crowd ------------------------------------------------------ *)

(* The spike must be visible in the schedule: a flash-crowd run executes
   more events in the same virtual span (compressed think times) than
   the steady run, and stays deterministic per seed. *)
let test_flash_crowd_spikes_load () =
  let steady = run_default "lazy-primary" in
  let flashed =
    run_default ~flash:Workload.Spec.default_flash_crowd "lazy-primary"
  in
  let again =
    run_default ~flash:Workload.Spec.default_flash_crowd "lazy-primary"
  in
  Alcotest.(check int) "flash-crowd run is deterministic"
    flashed.Workload.Runner.events again.Workload.Runner.events;
  Alcotest.(check bool) "spike compresses the makespan" true
    Sim.Simtime.(
      flashed.Workload.Runner.makespan < steady.Workload.Runner.makespan);
  Alcotest.(check int) "same work still completes" 200
    flashed.Workload.Runner.committed

let test_in_flash_window () =
  let fc = Workload.Spec.default_flash_crowd in
  let spec =
    Workload.Builder.spec ~flash:fc ()
  in
  let open Sim.Simtime in
  Alcotest.(check bool) "before the window" false
    (Workload.Spec.in_flash spec ~at:(of_ms 49));
  Alcotest.(check bool) "at onset" true
    (Workload.Spec.in_flash spec ~at:fc.Workload.Spec.fc_at);
  Alcotest.(check bool) "inside" true
    (Workload.Spec.in_flash spec ~at:(of_ms 100));
  Alcotest.(check bool) "at the end (exclusive)" false
    (Workload.Spec.in_flash spec ~at:(of_ms 150));
  let plain = Workload.Builder.spec () in
  Alcotest.(check bool) "no declared flash crowd: never" false
    (Workload.Spec.in_flash plain ~at:(of_ms 100))

let () =
  Alcotest.run "router"
    [
      ( "identity",
        [
          tc "router off preserves the pre-refactor schedule"
            test_router_off_schedule_preserved;
        ] );
      ( "routing",
        [
          tc "read/write splitting and session accounting"
            test_router_splits_reads_and_writes;
          tc "sticky pins sessions to their write replica"
            test_sticky_pins_sessions;
          QCheck_alcotest.to_alcotest prop_sticky_restores_ryw;
          tc "non-sticky routing measures ryw violations"
            test_nonsticky_violates_ryw;
          tc "failover retry answers reads under a crash"
            test_failover_retry_answers_reads;
        ] );
      ( "flash-crowd",
        [
          tc "spike compresses the schedule deterministically"
            test_flash_crowd_spikes_load;
          tc "in_flash window arithmetic" test_in_flash_window;
        ] );
    ]
