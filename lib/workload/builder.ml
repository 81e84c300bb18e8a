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
   message-cost measurement: constant 1 ms links, one client, one
   transaction, spans finalized at quiescence. Every number read off the
   probe comes from the recorded spans — expectations are only ever
   compared against, never substituted for, the observation. *)
let probe ?(seed = 7) ?(n = 3) ?(net = Network.default_config)
    ?(ops = [ Store.Operation.Incr ("x", 1) ])
    ?(until = Simtime.of_sec 2.) factory =
  let engine = Engine.create ~seed () in
  let config = { net with latency = Network.Constant (Simtime.of_ms 1) } in
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

(* ---- the §5 message-cost check (explain --check) --------------------- *)

type explained = {
  x_info : Core.Technique.info;
  x_shards : int;
  x_group : int;
  x_msgs : Msg_dag.msg list;
  x_sound : bool;
  x_summary : Msg_dag.summary;
}

let explain ?seed ~n (entry : Protocols.Registry.entry) cfg =
  let shards = Protocols.Registry.shards cfg in
  let p = probe ?seed ~n (entry.build cfg) in
  let msgs, sound, summary = probe_summary p in
  {
    x_info = entry.info;
    x_shards = shards;
    x_group = Protocols.Sharded.probe_group_size ~n ~shards;
    x_msgs = msgs;
    x_sound = sound;
    x_summary = summary;
  }

let expected_messages x = x.x_info.expected_messages ~n:x.x_group
let expected_steps x = x.x_info.expected_steps ~n:x.x_group

let section5 x =
  let s = x.x_summary and steps = expected_steps x in
  Verdict.v "section5"
    (x.x_sound && s.replied
    && s.messages = expected_messages x
    && s.steps = steps)
    (Printf.sprintf "%d/%d messages, %d/%d steps (observed/expected)%s"
       s.messages (expected_messages x) s.steps steps
       (if x.x_sound then "" else "; trace not causally sound"))

(* ---- the profiler's self-check (profile --check) --------------------- *)

let profile_verdicts (r : Profiler.report) =
  let json =
    match Sim.Json.parse (Profiler.report_to_json r) with
    | Ok _ -> Verdict.v "json" true "profile JSON parses"
    | Error e -> Verdict.v "json" false ("profile JSON does not parse: " ^ e)
  in
  (* The trace:export bucket is an off-loop [measure], not an engine
     event. *)
  let bucket_events =
    List.fold_left
      (fun acc (b : Profiler.row) ->
        if b.r_label = "trace:export" then acc else acc + b.r_events)
      0 r.p_buckets
  in
  let shares label total share =
    let sum = List.fold_left (fun acc b -> acc +. share b) 0. r.p_buckets in
    (* All-zero shares are legitimate when nothing of that resource was
       measured (sub-microsecond runs). *)
    let ok = total <= 0. || Float.abs (sum -. 1.0) <= 0.02 in
    Verdict.v (label ^ "_shares") ok
      (Printf.sprintf "%s shares sum to %.4f%s" label sum
         (if ok then "" else ", not ~1.0"))
  in
  [
    json;
    Verdict.v "bucket_events"
      (bucket_events = r.p_events)
      (Printf.sprintf "bucket events %d %s events executed %d" bucket_events
         (if bucket_events = r.p_events then "=" else "<>")
         r.p_events);
    shares "wall" r.p_self_wall_s (fun b -> b.r_wall_share);
    shares "alloc" r.p_alloc_words (fun b -> b.r_alloc_share);
  ]
