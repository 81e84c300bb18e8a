(* What the CLI adds on top of [Runner.run]: the workload spec from its
   flat flags, the fault schedule from --crash/--recover, and the
   single-transaction measurement harness behind `replisim trace` and
   `replisim explain` ([probe]). *)

open Sim

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

(* The command-line flags' faults, checked by the runner's own check;
   a rejected fault is named as its flag ([--crash 3@10ms: ...]). *)
let crash_schedule ~n ~crashes ~recoveries =
  let faults =
    List.map (fun (replica, at) -> Runner.Crash { at; replica }) crashes
    @ List.map (fun (replica, at) -> Runner.Recover { at; replica }) recoveries
  in
  match Runner.check_faults ~n_replicas:n faults with
  | Ok () -> Ok faults
  | Error (f, reason) -> Error (Format.asprintf "--%a: %s" Runner.pp_fault f reason)

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
