(* One builder path from the CLI (and the bench binary) to a running
   cluster: workload spec, crash/recover schedule, fault scenario,
   sampler and deadline are collected declaratively here, and every
   subcommand funnels through [run] / [run_with_instance] instead of
   re-implementing the Runner plumbing. The single-transaction
   measurement harness behind `replisim trace` and `replisim explain`
   lives here too ([probe]). *)

open Sim

type t = {
  seed : int;
  n_replicas : int;
  n_clients : int;
  spec : Spec.t;
  net : Network.config;
  arrival : Runner.arrival;
  failures : Runner.failure list;
  partitions : Runner.partition list;
  scenario : Scenario.t option;
  deadline : Simtime.t;
  sample : Simtime.t option;
  profiler : Profiler.t option;
  tracing : bool;
  analyze : bool;
  audit : bool;
  router : Router.config option;
}

let make ?(seed = 11) ?(replicas = 3) ?(clients = 4) ?(spec = Spec.default)
    ?(net = Network.default_config) ?(arrival = `Closed) ?(failures = [])
    ?(partitions = []) ?scenario ?(deadline = Simtime.of_sec 120.) ?sample
    ?profiler ?(tracing = true) ?(analyze = true) ?(audit = false) ?router ()
    =
  {
    seed;
    n_replicas = replicas;
    n_clients = clients;
    spec;
    net;
    arrival;
    failures;
    partitions;
    scenario;
    deadline;
    sample;
    profiler;
    tracing;
    analyze;
    audit;
    router;
  }

let spec ?(keys = 100) ?(skew = 0.6) ?(updates = 0.5) ?(ops = 1) ?(txns = 50)
    ?(think = Simtime.of_ms 1) ?(shards = 1) ?(cross = 0.)
    ?(shape = Spec.Mixed) ?flash () =
  {
    Spec.n_keys = keys;
    key_skew = skew;
    update_ratio = updates;
    ops_per_txn = ops;
    txns_per_client = txns;
    think_time = think;
    shards;
    cross_shard = cross;
    shape;
    flash_crowd = flash;
  }

(* The first out-of-range event among [events], reported under [flag]:
   a replica id outside [0, n) (ids from [n] on are clients) or a
   negative time. *)
let check_events ~n ~flag events =
  List.find_map
    (fun (replica, at) ->
      let event = Printf.sprintf "%s %d@%gms" flag replica (Simtime.to_ms at) in
      if replica < 0 || replica >= n then
        Some
          (Printf.sprintf "%s: no replica %d (with -n %d, replicas are 0..%d)"
             event replica n (n - 1))
      else if Simtime.(at < zero) then
        Some (Printf.sprintf "%s: time must not be negative" event)
      else None)
    events

(* Pair each recovery with the crash of the same replica; a recovery
   without a matching earlier crash is a schedule error. *)
let pair_recoveries ~crashes ~recoveries =
  let failures =
    List.map (fun (replica, at) -> Runner.crash_at ~at replica) crashes
  in
  List.fold_left
    (fun acc (replica, recover_at) ->
      match acc with
      | Error _ as e -> e
      | Ok failures -> (
          let paired = ref false in
          let failures =
            List.map
              (fun (f : Runner.failure) ->
                if
                  (not !paired) && f.replica = replica
                  && f.recover_at = None
                  && Simtime.(f.at < recover_at)
                then begin
                  paired := true;
                  { f with recover_at = Some recover_at }
                end
                else f)
              failures
          in
          match !paired with
          | true -> Ok failures
          | false ->
              Error
                (Printf.sprintf
                   "recovery %d@%s has no earlier crash of replica %d" replica
                   (Simtime.to_string recover_at)
                   replica)))
    (Ok failures) recoveries

let crash_schedule ~n ~crashes ~recoveries =
  match
    ( check_events ~n ~flag:"--crash" crashes,
      check_events ~n ~flag:"--recover" recoveries )
  with
  | Some msg, _ | None, Some msg -> Error msg
  | None, None -> pair_recoveries ~crashes ~recoveries

let run_with_instance t factory =
  let tune =
    match t.scenario with
    | Some s -> Some (fun net ~replicas:_ ~clients:_ -> Scenario.apply s net)
    | None -> None
  in
  Runner.run_with_instance ~seed:t.seed ~n_replicas:t.n_replicas
    ~n_clients:t.n_clients ~net:t.net ?tune ~arrival:t.arrival
    ~failures:t.failures ~partitions:t.partitions ~deadline:t.deadline
    ?sample:t.sample ?profiler:t.profiler ~tracing:t.tracing
    ~analyze:t.analyze ~audit:t.audit ?router:t.router ~spec:t.spec factory

let run t factory = fst (run_with_instance t factory)

(* ---- single-transaction probe (trace / explain) --------------------- *)

type probe = {
  p_engine : Engine.t;
  p_net : Network.t;
  p_inst : Core.Technique.instance;
  p_rid : int;
  p_client : int;
  p_replicas : int list;
}

(* Deterministic single-transaction harness for trace rendering and
   message-cost measurement: constant-latency links, no drops, one
   client, one transaction, spans finalized at quiescence. Every number
   read off the probe comes from the recorded spans — expectations are
   only ever compared against, never substituted for, the observation. *)
let probe ?(seed = 7) ?(n = 3) ?(latency = Simtime.of_ms 1)
    ?(ops = [ Store.Operation.Incr ("x", 1) ])
    ?(until = Simtime.of_sec 2.) factory =
  let engine = Engine.create ~seed () in
  let config =
    { Network.latency = Network.Constant latency; drop_probability = 0.0 }
  in
  let net = Network.create engine ~n:(n + 1) config in
  let replicas = List.init n Fun.id in
  let client = n in
  let inst = factory net ~replicas ~clients:[ client ] in
  let request = Store.Operation.request net ~client ops in
  inst.Core.Technique.submit ~client request (fun _ -> ());
  ignore (Engine.run ~until engine);
  let spans = inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Engine.now engine);
  {
    p_engine = engine;
    p_net = net;
    p_inst = inst;
    p_rid = request.Store.Operation.rid;
    p_client = client;
    p_replicas = replicas;
  }

(* The probe's message-cost summary, measured from the causally linked
   message spans (the `replisim explain` numbers). *)
let probe_summary p =
  let collector = Core.Phase_span.collector p.p_inst.Core.Technique.spans in
  let summary =
    Sim.Msg_dag.analyze collector ~trace:p.p_rid ~clients:[ p.p_client ]
  in
  let msgs = Sim.Msg_dag.messages collector ~trace:p.p_rid in
  let sound = Sim.Msg_dag.causally_sound collector ~trace:p.p_rid in
  (msgs, sound, summary)
