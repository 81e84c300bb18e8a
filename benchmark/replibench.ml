(* replibench — the repository benchmark.

   Runs four fixed workloads of the replication simulator through the
   whole process a user pays for (cluster build, event loop, quiescence,
   post-run oracles, trace export) and measures each layer from the
   outside: it wraps the factory handed to [Workload.Runner], the
   instance's [submit]/[read_at] and reply callbacks, and (traced passes
   only) pushes a counting handler on top of every node's handler
   stack; it reads the public counters of [Sim.Engine], [Sim.Network],
   [Gc], [Workload.Router] and [Sim.Profiler]; and it re-times the
   public post-run functions on the instance the runner returns. No
   library code knows it is being measured.

   Every pass runs in a fresh child process started from
   [Sys.executable_name], so heap peaks and GC state belong to one pass.
   Passes run one after another; nothing runs concurrently.

   Usage:
     replibench run [--seed 11] [--reps 3] [--workloads a,b] [--out F]
     replibench trace [--seed 11] [--workloads a,b]
     replibench compare A.json B.json [--spec BENCHMARK.json]
     replibench --workload W --seed N --seconds S --trace 0|1
   The last form is the harness entry point: it repeats measured passes
   of one workload for S seconds (plus one traced pass with --trace 1)
   and prints one JSON result object as its last line. *)

(* Process CPU seconds (user + system). The end-to-end times are CPU
   time: on a shared machine, a pass that loses its core to another
   process keeps its CPU time but not its wall time. *)
let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Main entry: [setup_s] and [txns_per_cpu_s] are measured from here. *)
let entry_cpu = cpu ()
let entry_wall = Unix.gettimeofday ()

open Sim
module W = Workload

let now = Unix.gettimeofday

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("replibench: " ^ s);
      exit 2)
    fmt

(* Outputs (the Chrome export, stage spans, run documents) go here,
   relative to the working directory. *)
let out_dir = "_bench"

let write_out name s =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let path = Filename.concat out_dir name in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s);
  path

(* ---- Workloads ----------------------------------------------------------- *)

type workload = {
  name : string;
  why : string;
  technique : string;
  replicas : int;
  spec : W.Spec.t;
  tracing : bool;  (** span tracing (message and phase spans) *)
  export : bool;  (** write the Chrome trace after the run *)
  deadline : Simtime.t option;
  router : W.Router.config option;
  audit : bool;
  faults : W.Scenario.t option;
}

(* Closed-loop clients with the spec's 1 ms think time; links use
   [Sim.Network.default_config] (uniform 0.5-1.5 ms, no loss). *)
let clients = 8

let spec ?(keys = 1_000) ?(zipf = 0.6) ?(ops = 1) ~updates txns =
  {
    W.Spec.default with
    n_keys = keys;
    key_skew = zipf;
    update_ratio = updates;
    ops_per_txn = ops;
    txns_per_client = txns;
  }

(* 41 cycles, one every 500 ms from 200 ms: replica [i mod 3] crashes
   for 150 ms, then 20% message loss from +250 ms to +350 ms. *)
let fault_cycles =
  let ms = Simtime.of_ms in
  let cycle i =
    let t0 = 200 + (500 * i) and replica = i mod 3 in
    W.Scenario.
      [
        Crash { at = ms t0; replica };
        Recover { at = ms (t0 + 150); replica };
        Loss { at = ms (t0 + 250); probability = 0.2; until = ms (t0 + 350) };
      ]
  in
  {
    W.Scenario.name = "crash-loss-cycles";
    description = "rolling 150 ms crashes and 100 ms loss bursts";
    events = List.concat (List.init 41 cycle);
  }

let base =
  {
    name = "";
    why = "";
    technique = "";
    replicas = 3;
    spec = W.Spec.default;
    tracing = false;
    export = false;
    deadline = None;
    router = None;
    audit = false;
    faults = None;
  }

let workloads =
  [
    {
      base with
      name = "lazy32-bulk";
      why =
        "loop-bound: engine, network delivery and Rchan acks dominate; the \
         control whose per-txn cost stays flat as the run grows";
      technique = "lazy-primary";
      replicas = 32;
      spec = spec ~updates:0.1 1_000;
    };
    {
      base with
      name = "lazy16-traced";
      why =
        "post-run-bound: span tracing on, the phase summary, span index and \
         Chrome export dominate the wall time";
      technique = "lazy-primary";
      replicas = 16;
      spec = spec ~keys:100 ~updates:0.5 63;
      tracing = true;
      export = true;
    };
    {
      base with
      name = "cert5-contended";
      why =
        "write-heavy and contended: sequencer abcast, the certification test \
         and the serializability oracle; per-txn cost grows with the run";
      technique = "certification";
      replicas = 5;
      spec = spec ~zipf:0.9 ~ops:4 ~updates:0.5 900;
      deadline = Some (Simtime.of_sec 20.);
    };
    {
      base with
      name = "ue3-faults-routed";
      why =
        "fault-driven: crashes and loss bursts exercise Rchan retransmits, \
         recovery, router failover and the audit on the abcast group layer";
      technique = "eager-ue-abcast";
      replicas = 3;
      spec = spec ~zipf:0.9 ~updates:0.2 1_000;
      deadline = Some (Simtime.of_sec 20.);
      router = Some { W.Router.default_config with sticky = true };
      audit = true;
      faults = Some fault_cycles;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      fail "unknown workload %S (valid: %s)" name
        (String.concat ", " (List.map (fun w -> w.name) workloads))

(* ---- Metric catalogue ---------------------------------------------------- *)

(* The harness reports [end_to_end] with --trace 0 and [per_layer] with
   --trace 1; BENCHMARK.json lists exactly these names and units (the
   smoke test checks it). *)
let end_to_end =
  [
    ("txns_per_cpu_s", "txn/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MiB");
    ("sim_latency_p50_ms", "ms");
    ("sim_latency_p99_ms", "ms");
    ("sim_msgs_per_txn", "msg/txn");
    ("sim_commit_ratio", "ratio");
  ]

(* Layer metrics taken from measured (untraced) passes. *)
let measured_layers =
  [
    ("stage.factory_s", "s");
    ("stage.loop_s", "s");
    ("stage.postrun_s", "s");
    ("stage.export_s", "s");
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.timers_scheduled", "count");
    ("engine.timers_cancelled", "count");
    ("engine.queue_peak", "count");
    ("engine.late_early_ratio", "ratio");
    ("net.sent", "count");
    ("net.delivered", "count");
    ("net.dropped", "count");
    ("gc.alloc_words_per_txn", "words/txn");
    ("gc.major_collections", "count");
    ("router.retries", "count");
    ("router.failovers", "count");
    ("router.gave_up", "count");
    ("client.max_gap_ms", "ms");
  ]

(* Timer labels the four workloads dispatch (seed 11); any other label
   is folded into [other]. *)
let profile_labels =
  [
    "net:deliver";
    "client:arrival";
    "client:retry";
    "proto:propagate";
    "fd:heartbeat";
    "fd:check";
    "abcast:poll";
    "rchan:retransmit";
    "router:retry";
    "fault";
    "other";
  ]

(* The union of the eight most delivered message kinds of each workload
   (seed 11); any other kind is folded into [other]. *)
let delivery_kinds =
  [
    "Ack";
    "Reply";
    "Data(Lpreq)";
    "Data(Rb(Fifo(Refresh)))";
    "Data(Creq)";
    "Data(Order)";
    "Data(Order_ack)";
    "Data(Inject(Certify))";
    "Data(Inject(Ordered))";
    "Data(Fetch)";
    "Data(Fetch_reply(Certify))";
    "Data(Fetch_reply(Ordered))";
    "Heartbeat";
    "Read_req";
    "other";
  ]

(* Is [key] counted in the bucket [bucket] of the list [listed]? *)
let in_bucket listed bucket key =
  key = bucket || (bucket = "other" && not (List.mem key listed))

(* Metric names may only use [A-Za-z0-9_.-]: "Data(Order_ack)" becomes
   "Data.Order_ack", "net:deliver" becomes "net_deliver". *)
let sanitize s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '(' -> Buffer.add_char b '.'
      | ')' -> ()
      | ('A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-') as c ->
          Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    s;
  Buffer.contents b

let profile_metric label field = "profile." ^ sanitize label ^ "." ^ field
let delivery_metric kind = "net.deliveries_per_txn." ^ sanitize kind

let post_names =
  [
    "post.phase_summary_s";
    "post.serializability_s";
    "post.convergence_s";
    "post.span_traces_s";
    "post.run_record_s";
  ]

(* Layer metrics taken from the traced pass. *)
let traced_layers =
  List.concat_map
    (fun l ->
      [
        (profile_metric l "self_s", "s");
        (profile_metric l "events", "count");
        (profile_metric l "alloc_words", "words");
      ])
    profile_labels
  @ [ ("profile.unattributed_s", "s"); ("profile.overhead_pct", "%") ]
  @ List.map (fun k -> (delivery_metric k, "msg/txn")) delivery_kinds
  @ List.map (fun n -> (n, "s")) post_names
  @ [ ("span.count", "count"); ("export.bytes", "bytes") ]

let per_layer = measured_layers @ traced_layers
let unit_of name = Option.value ~default:"" (List.assoc_opt name (end_to_end @ per_layer))

(* ---- One pass (runs in a child process) ---------------------------------- *)

type pass = {
  planned : int;  (** requests the clients were scheduled to send *)
  answered : int;
  fingerprint : string;
      (** deterministic outcome: identical for every pass of a seed *)
  checks : (string * bool * string) list;
  values : (string * float) list;
}

(* What the wrappers around the runner observe during one pass. *)
type observed = {
  mutable net : Network.t option;
  mutable factory_wall : float * float;
  mutable first_submit : (float * float) option;  (** wall, CPU *)
  mutable reply_walls : float list;  (** newest first *)
  answered_rids : (int, unit) Hashtbl.t;
  deliveries : (string, int ref) Hashtbl.t;  (** by [Msg.name]; traced *)
}

exception Setup_done

(* Wrap [factory]: time the cluster build, stamp the first submission and
   every reply, and (traced) count deliveries by kind with a handler on
   top of every node's stack. With [setup_only] the first submission
   ends the pass. *)
let instrument o ~setup_only ~traced factory network ~replicas ~clients =
  let t0 = now () in
  let inst : Core.Technique.instance = factory network ~replicas ~clients in
  o.factory_wall <- (t0, now ());
  o.net <- Some network;
  (* Every protocol handler is installed by the time the factory
     returns, so a handler pushed now sees every delivery first. *)
  if traced then
    for node = 0 to Network.size network - 1 do
      Network.add_handler network node (fun ~src:_ msg ->
          let kind = Msg.name msg in
          (match Hashtbl.find_opt o.deliveries kind with
          | Some c -> incr c
          | None -> Hashtbl.add o.deliveries kind (ref 1));
          false)
    done;
  let submitted () =
    if o.first_submit = None then begin
      o.first_submit <- Some (now (), cpu ());
      if setup_only then raise Setup_done
    end
  in
  (* The router may resend a read; only the first reply is stamped. *)
  let stamped (req : Store.Operation.request) cb reply =
    if not (Hashtbl.mem o.answered_rids req.rid) then begin
      Hashtbl.add o.answered_rids req.rid ();
      o.reply_walls <- now () :: o.reply_walls
    end;
    cb reply
  in
  {
    inst with
    submit =
      (fun ~client req cb ->
        submitted ();
        inst.submit ~client req (stamped req cb));
    read_at =
      Option.map
        (fun read_at ~client ~replica req cb ->
          submitted ();
          read_at ~client ~replica req (stamped req cb))
        inst.read_at;
  }

(* Wall time per reply in the last quarter of replies over the first
   quarter, the first quarter counted from the first submission. *)
let late_early_ratio ~start walls =
  let a = Array.of_list (List.rev walls) in
  let n = Array.length a in
  let q = n / 4 in
  let early = if q = 0 then 0. else a.(q - 1) -. start in
  if early > 0. then (a.(n - 1) -. a.(n - 1 - q)) /. early else 1.

let alive_stores net (inst : Core.Technique.instance) group =
  List.filter_map
    (fun r -> if Network.alive net r then Some (inst.replica_store r) else None)
    group

(* The traced pass's layers: profiler buckets, deliveries by kind and
   re-timed post-run functions, with the two identities that tie them to
   the loop wall time and the network's own delivery count. [stage]
   times a call and records it as a stage span. *)
let traced_layers_of o p ~stage ~seed ~spec ~per_txn w (result : W.Runner.result)
    (inst : Core.Technique.instance) =
  let network = Option.get o.net in
  let report = Profiler.report p in
  let bucket label =
    List.fold_left
      (fun (s, e, a) (r : Profiler.row) ->
        if in_bucket profile_labels label r.r_label then
          (s +. (r.r_wall_ms /. 1e3), e + r.r_events, a +. r.r_alloc_w)
        else (s, e, a))
      (0., 0, 0.) report.p_buckets
  in
  let buckets = List.map (fun l -> (l, bucket l)) profile_labels in
  let self_sum = List.fold_left (fun acc (_, (s, _, _)) -> acc +. s) 0. buckets in
  let unattributed = report.p_wall_s -. report.p_self_wall_s in
  let kinds = Hashtbl.fold (fun k c acc -> (k, !c) :: acc) o.deliveries [] in
  let kind_count kind =
    List.fold_left
      (fun acc (k, c) -> if in_bucket delivery_kinds kind k then acc + c else acc)
      0 kinds
  in
  let counted = List.fold_left (fun acc (_, c) -> acc + c) 0 kinds in
  let delivered = Network.messages_delivered network in
  let collector = Core.Phase_span.collector inst.spans in
  let posts =
    List.map2 stage post_names
      [
        (fun () ->
          List.iter
            (fun rid -> ignore (Core.Phase_span.durations inst.spans ~rid))
            (Core.Phase_span.rids inst.spans));
        (fun () -> ignore (Store.Serializability.check inst.history));
        (fun () ->
          ignore
            (List.for_all
               (fun g -> Core.Convergence.converged (alive_stores network inst g))
               inst.groups));
        (fun () -> ignore (Span.traces collector));
        (fun () ->
          ignore
            (W.Run_record.to_json
               (W.Run_record.of_run ~technique:w.technique ~config:[] ~seed
                  ~n_replicas:w.replicas ~n_clients:clients ~arrival:`Closed ~spec
                  result)));
      ]
  in
  let loop = result.wall_s in
  ( List.concat_map
      (fun (l, (s, e, a)) ->
        [
          (profile_metric l "self_s", s);
          (profile_metric l "events", float e);
          (profile_metric l "alloc_words", a);
        ])
      buckets
    @ [ ("profile.unattributed_s", unattributed) ]
    @ List.map (fun k -> (delivery_metric k, per_txn (float (kind_count k)))) delivery_kinds
    @ List.combine post_names posts
    @ [ ("span.count", float (Span.count collector)) ],
    [
      ( "profile_identity",
        unattributed >= 0. && Float.abs (self_sum +. unattributed -. loop) <= 0.01 *. loop,
        Printf.sprintf "buckets %.4f s + unattributed %.4f s vs loop %.4f s" self_sum
          unattributed loop );
      ( "delivery_identity",
        counted = delivered,
        Printf.sprintf "counted %d vs Network.messages_delivered %d" counted delivered );
    ] )

(* Everything after the runner returns: export, counters, checks. *)
let finish_pass o ~profiler ~seed ~spec ~planned w (result : W.Runner.result)
    (inst : Core.Technique.instance) =
  let returned = now () in
  let network = Option.get o.net in
  let engine = Network.engine network in
  let export_bytes, export_end =
    if not w.export then (0, returned)
    else
      let s = Trace_export.to_chrome (Core.Phase_span.collector inst.spans) in
      ignore (write_out (w.name ^ ".chrome.json") s);
      (String.length s, now ())
  in
  let end_cpu = cpu () in
  let first, first_cpu = Option.get o.first_submit in
  let answered = result.committed + result.aborted in
  let per_txn x = x /. float (max 1 answered) in
  let loop = result.wall_s in
  let router f = match result.router with Some r -> float (f r) | None -> 0. in
  let events = Engine.events_executed engine in
  let sim =
    [
      ("sim_latency_p50_ms", result.latency_ms.p50);
      ("sim_latency_p99_ms", result.latency_ms.p99);
      ("sim_msgs_per_txn", result.messages_per_txn);
      ("sim_commit_ratio", per_txn (float result.committed));
    ]
  in
  let max_gap = Simtime.to_ms result.max_response_gap in
  let fingerprint =
    String.concat " "
      (Printf.sprintf "committed=%d aborted=%d events=%d messages=%d" result.committed
         result.aborted result.events result.messages
      :: List.map
           (fun (n, v) -> Printf.sprintf "%s=%.17g" n v)
           (sim @ [ ("client.max_gap_ms", max_gap) ]))
  in
  let measured =
    [
      ("txns_per_cpu_s", float answered /. (end_cpu -. entry_cpu));
      ("setup_s", first_cpu -. entry_cpu);
      ( "peak_heap_mb",
        float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8) /. 1_048_576. );
    ]
    @ sim
    @ [
        ("stage.factory_s", snd o.factory_wall -. fst o.factory_wall);
        ("stage.loop_s", loop);
        ("stage.postrun_s", returned -. first -. loop);
        ("stage.export_s", export_end -. returned);
        ("engine.events", float events);
        ("engine.events_per_s", if loop > 0. then float events /. loop else 0.);
        ("engine.timers_scheduled", float (Engine.timers_scheduled engine));
        ("engine.timers_cancelled", float (Engine.timers_cancelled engine));
        ("engine.queue_peak", float (Engine.queue_peak engine));
        ("engine.late_early_ratio", late_early_ratio ~start:first o.reply_walls);
        ("net.sent", float (Network.messages_sent network));
        ("net.delivered", float (Network.messages_delivered network));
        ("net.dropped", float (Network.messages_dropped network));
        ("gc.alloc_words_per_txn", per_txn (Profiler.allocated_words ()));
        ("gc.major_collections", float (Gc.quick_stat ()).major_collections);
        ("router.retries", router (fun r -> r.retries));
        ("router.failovers", router (fun r -> r.failovers));
        ("router.gave_up", router (fun r -> r.gave_up));
        ("client.max_gap_ms", max_gap);
      ]
  in
  (* The benchmark's own stage spans, in wall microseconds since main
     entry; a traced pass writes them out for Perfetto. *)
  let stages = Span.create () in
  let us t = Simtime.of_us (int_of_float ((t -. entry_wall) *. 1e6)) in
  let root = Span.start_span stages ~trace:1 ~name:"pass" (us entry_wall) in
  let span name t0 t1 =
    Span.finish stages (Span.start_span stages ~trace:1 ~parent:root ~name (us t0)) (us t1)
  in
  span "setup" entry_wall first;
  span "factory" (fst o.factory_wall) (snd o.factory_wall);
  span "loop" first (first +. loop);
  span "postrun" (first +. loop) returned;
  if w.export then span "export" returned export_end;
  let stage name f =
    let t0 = now () in
    f ();
    let t1 = now () in
    span name t0 t1;
    t1 -. t0
  in
  let traced_values, traced_checks =
    match profiler with
    | None -> ([], [])
    | Some p ->
        let values, checks =
          traced_layers_of o p ~stage ~seed ~spec ~per_txn w result inst
        in
        (values @ [ ("export.bytes", float export_bytes) ], checks)
  in
  Span.finish stages root (us (now ()));
  let tiny = Trace_export.to_chrome stages in
  if profiler <> None then ignore (write_out (w.name ^ ".stages.json") tiny);
  let checks =
    [
      ("converged", result.converged, "");
      ("serializable", result.serializable, "");
      ( "no_failed_requests",
        answered = planned,
        Printf.sprintf "%d of %d answered" answered planned );
      ( "tiny_export_parses",
        (match W.Bench_out.parse tiny with
        | Ok (W.Bench_out.Obj fields) -> List.mem_assoc "traceEvents" fields
        | _ -> false),
        Printf.sprintf "%d bytes" (String.length tiny) );
    ]
    @ (match result.audit with Some a -> [ ("audit_drained", a.drained, "") ] | None -> [])
    @ (match result.router with
      | Some r -> [ ("router_gave_up_zero", r.gave_up = 0, string_of_int r.gave_up) ]
      | None -> [])
    @ (if w.export then
         [ ("export_nonempty", export_bytes > 0, Printf.sprintf "%d bytes" export_bytes) ]
       else [])
    @ traced_checks
  in
  { planned; answered; fingerprint; checks; values = measured @ traced_values }

(* One pass of [w]. With [setup_only] the pass stops at the first
   submission and reports only [setup_s]. *)
let run_pass ~setup_only ~traced ~scale ~seed w =
  let factory =
    match Protocols.Registry.find w.technique with
    | Some e -> Protocols.Registry.default_factory e
    | None -> fail "unknown technique %s" w.technique
  in
  let txns = max 1 (int_of_float (Float.round (scale *. float w.spec.txns_per_client))) in
  let spec = { w.spec with txns_per_client = txns } in
  let planned = clients * txns in
  let o =
    {
      net = None;
      factory_wall = (0., 0.);
      first_submit = None;
      reply_walls = [];
      answered_rids = Hashtbl.create 1024;
      deliveries = Hashtbl.create 32;
    }
  in
  let profiler = if traced then Some (Profiler.create ()) else None in
  let tune =
    Option.map (fun sc net ~replicas:_ ~clients:_ -> W.Scenario.apply sc net) w.faults
  in
  match
    W.Runner.run_with_instance ~seed ~n_replicas:w.replicas ~n_clients:clients
      ?deadline:w.deadline ?tune ?profiler ~tracing:w.tracing ~audit:w.audit
      ?router:w.router ~spec
      (instrument o ~setup_only ~traced factory)
  with
  | exception Setup_done ->
      let _, first_cpu = Option.get o.first_submit in
      {
        planned = 0;
        answered = 0;
        fingerprint = "";
        checks = [];
        values = [ ("setup_s", first_cpu -. entry_cpu) ];
      }
  | result, inst -> finish_pass o ~profiler ~seed ~spec ~planned w result inst

(* Child → parent wire format, one item per line:
   "planned N", "answered N", "fingerprint ...", "check NAME ok|FAIL
   DETAIL", "metric NAME VALUE". *)
let print_pass p =
  Printf.printf "planned %d\nanswered %d\nfingerprint %s\n" p.planned p.answered p.fingerprint;
  List.iter
    (fun (n, ok, d) -> Printf.printf "check %s %s %s\n" n (if ok then "ok" else "FAIL") d)
    p.checks;
  List.iter (fun (n, v) -> Printf.printf "metric %s %.17g\n" n v) p.values

let parse_pass text =
  let split s =
    match String.index_opt s ' ' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  List.fold_left
    (fun p line ->
      match split line with
      | "planned", n -> { p with planned = int_of_string n }
      | "answered", n -> { p with answered = int_of_string n }
      | "fingerprint", f -> { p with fingerprint = f }
      | "check", rest ->
          let name, rest = split rest in
          let verdict, detail = split rest in
          { p with checks = (name, verdict = "ok", detail) :: p.checks }
      | "metric", rest ->
          let name, v = split rest in
          { p with values = (name, float_of_string v) :: p.values }
      | _ -> p)
    { planned = 0; answered = 0; fingerprint = ""; checks = []; values = [] }
    (List.rev (String.split_on_char '\n' text))

let spawn_pass ?(setup_only = false) ?(traced = false) ~scale ~seed w =
  let exe = Sys.executable_name in
  let args =
    [ exe; "pass"; "--workload"; w.name; "--seed"; string_of_int seed; "--scale";
      Printf.sprintf "%.17g" scale ]
    @ (if traced then [ "--traced" ] else [])
    @ if setup_only then [ "--setup-only" ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> parse_pass text
  | _ -> fail "pass %s (seed %d) failed" w.name seed

(* ---- Aggregation --------------------------------------------------------- *)

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let values_of name passes = List.filter_map (fun p -> List.assoc_opt name p.values) passes

(* Set-up takes a fraction of a millisecond, so one sample per pass is
   too few: each measured pass is followed by this many probe processes
   that stop at the first submission, and the pass reports the median. *)
let setup_probes = 5

let measure_pass ~scale ~seed w =
  let p = spawn_pass ~scale ~seed w in
  let probes =
    List.init setup_probes (fun _ -> spawn_pass ~setup_only:true ~scale ~seed w)
  in
  let setup = median (values_of "setup_s" (p :: probes)) in
  { p with values = List.map (fun (n, v) -> (n, if n = "setup_s" then setup else v)) p.values }

(* One workload's passes: several measured, at most one traced. *)
type sample = { workload : workload; measured : pass list; traced : pass option }

let sample_passes s = s.measured @ Option.to_list s.traced

(* Checks of every pass, plus: the deterministic fingerprint is the same
   across passes, measured and traced alike. *)
let sample_checks s =
  let passes = sample_passes s in
  let fps = List.sort_uniq compare (List.map (fun p -> p.fingerprint) passes) in
  List.concat_map (fun p -> p.checks) passes
  @ [
      ( "fingerprint_stable",
        List.length fps = 1,
        Printf.sprintf "%d distinct over %d passes" (List.length fps) (List.length passes) );
    ]

let sample_correct s = List.for_all (fun (_, ok, _) -> ok) (sample_checks s)

(* Per-layer values: medians of the measured passes, the traced pass's
   own layers, and the profiler's overhead on the loop. *)
let layer_values measured traced =
  let medians = List.map (fun (n, _) -> (n, median (values_of n measured))) measured_layers in
  let loop = List.assoc "stage.loop_s" medians in
  medians
  @ List.map
      (fun (n, _) ->
        if n = "profile.overhead_pct" then
          (n, 100. *. ((List.assoc "stage.loop_s" traced.values /. loop) -. 1.))
        else (n, List.assoc n traced.values))
      traced_layers

let print_failed_checks s =
  List.iter
    (fun (n, ok, d) ->
      if not ok then Printf.printf "  CHECK FAILED [%s] %s %s\n" s.workload.name n d)
    (sample_checks s)

let print_table title rows =
  Printf.printf "\n%s\n%-44s %-10s %14s %14s %14s\n" title "metric" "unit" "median" "min" "max";
  List.iter
    (fun (name, vs) ->
      Printf.printf "%-44s %-10s %14.6g %14.6g %14.6g\n" name (unit_of name) (median vs)
        (List.fold_left Float.min infinity vs)
        (List.fold_left Float.max neg_infinity vs))
    rows

let print_values title rows =
  Printf.printf "\n%s\n" title;
  List.iter (fun (n, v) -> Printf.printf "  %-48s %-10s %.6g\n" n (unit_of n) v) rows

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_string s = "\"" ^ Trace_export.json_escape s ^ "\""

(* ---- Harness entry point -------------------------------------------------- *)

let harness ~seed ~seconds ~trace ~scale w =
  let start = now () in
  (* Repeat measured passes while the next one, estimated by the last,
     still fits in the budget; at least one. *)
  let rec go acc last =
    if acc <> [] && now () -. start +. last > seconds then List.rev acc
    else
      let t0 = now () in
      let p = measure_pass ~scale ~seed w in
      go (p :: acc) (now () -. t0)
  in
  let measured = go [] 0. in
  let traced = if trace then Some (spawn_pass ~traced:true ~scale ~seed w) else None in
  let s = { workload = w; measured; traced } in
  let metrics =
    match traced with
    | Some t -> layer_values measured t
    | None -> List.map (fun (n, _) -> (n, median (values_of n measured))) end_to_end
  in
  let passes = sample_passes s in
  let attempted = List.fold_left (fun a p -> a + p.planned) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.planned - p.answered) 0 passes in
  print_values
    (Printf.sprintf "%s seed=%d passes=%d%s" w.name seed (List.length measured)
       (if trace then " (+1 traced)" else ""))
    metrics;
  print_failed_checks s;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (sample_correct s) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_float v)
              (json_string (unit_of n)))
          metrics))

(* ---- run / trace ---------------------------------------------------------- *)

let print_verdict samples =
  List.iter print_failed_checks samples;
  let ok = List.for_all sample_correct samples in
  Printf.printf "\nchecks %s\n" (if ok then "passed" else "FAILED");
  ok

(* The document [compare] reads: per workload, every metric's value in
   each pass. *)
let document ~seed samples =
  let workload s =
    let rows =
      List.map (fun (n, _) -> (n, values_of n s.measured)) (end_to_end @ measured_layers)
    in
    Printf.sprintf "{\"name\":%s,\"correct\":%b,\"fingerprint\":%s,\"metrics\":{%s}}"
      (json_string s.workload.name) (sample_correct s)
      (json_string (List.hd s.measured).fingerprint)
      (String.concat ","
         (List.map
            (fun (n, vs) ->
              Printf.sprintf "%s:{\"unit\":%s,\"values\":[%s]}" (json_string n)
                (json_string (unit_of n))
                (String.concat "," (List.map json_float vs)))
            rows))
  in
  Printf.sprintf "{\"type\":\"replibench-run\",\"seed\":%d,\"correct\":%b,\"workloads\":[%s]}\n"
    seed
    (List.for_all sample_correct samples)
    (String.concat "," (List.map workload samples))

let run_cmd ~seed ~reps ~selected ~scale ~out =
  (* Reps interleave the workloads, so slow drift on the machine spreads
     over all of them instead of biasing one. *)
  let rounds =
    List.init reps (fun _ -> List.map (fun w -> measure_pass ~scale ~seed w) selected)
  in
  let samples =
    List.mapi
      (fun i w ->
        { workload = w; measured = List.map (fun r -> List.nth r i) rounds; traced = None })
      selected
  in
  List.iter
    (fun s ->
      let p = List.hd s.measured in
      let committed = List.assoc "sim_commit_ratio" p.values *. float p.answered in
      print_table
        (Printf.sprintf "%s (seed %d, %d reps; latency over %.0f committed txns)"
           s.workload.name seed reps committed)
        (List.map (fun (n, _) -> (n, values_of n s.measured)) (end_to_end @ measured_layers)))
    samples;
  let doc = document ~seed samples in
  let path =
    match out with
    | Some path ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doc);
        path
    | None -> write_out "replibench-run.json" doc
  in
  Printf.printf "\nwrote %s\n" path;
  if not (print_verdict samples) then exit 1

let trace_cmd ~seed ~selected ~scale =
  let samples =
    List.map
      (fun w ->
        let measured = [ measure_pass ~scale ~seed w ] in
        { workload = w; measured; traced = Some (spawn_pass ~traced:true ~scale ~seed w) })
      selected
  in
  List.iter
    (fun s ->
      print_values
        (Printf.sprintf "%s (seed %d, traced; stage spans in %s/%s.stages.json)" s.workload.name
           seed out_dir s.workload.name)
        (layer_values s.measured (Option.get s.traced)))
    samples;
  if not (print_verdict samples) then exit 1

(* ---- compare -------------------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> fail "%s" e
  | text -> ( match W.Bench_out.parse text with Ok j -> j | Error e -> fail "%s: %s" path e)

let field path name = function
  | W.Bench_out.Obj fs when List.mem_assoc name fs -> List.assoc name fs
  | _ -> fail "%s: missing %S" path name

let str = function W.Bench_out.Str s -> s | _ -> ""
let num = function W.Bench_out.Num f -> f | _ -> nan
let arr = function W.Bench_out.Arr l -> l | _ -> []

(* Directions and bounds come from BENCHMARK.json, never from names. *)
let load_rules path =
  List.map
    (fun m ->
      let dir =
        match str (field path "better" m) with
        | "lower" -> W.Compare.Lower_better
        | "higher" -> W.Compare.Higher_better
        | d -> fail "%s: bad direction %S" path d
      in
      {
        W.Compare.metric = str (field path "name" m);
        dir;
        threshold = num (field path "bound" m);
      })
    (arr (field path "end_to_end" (read_json path)))

(* workload -> metric -> per-pass values *)
let load_run path =
  List.map
    (fun wj ->
      ( str (field path "name" wj),
        match field path "metrics" wj with
        | W.Bench_out.Obj ms ->
            List.map (fun (m, v) -> (m, List.map num (arr (field path "values" v)))) ms
        | _ -> [] ))
    (arr (field path "workloads" (read_json path)))

(* Spread of the passes: the distance between the quartiles over the
   median, with the quartiles of Python's statistics.quantiles(xs, n=4)
   (exclusive method; with three passes that is max - min). *)
let spread xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then 0.
  else
    let quartile i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float ((i * (n + 1)) - (4 * j)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (quartile 3 -. quartile 1) /. Float.abs (median xs)

let compare_cmd ~spec_path a b =
  let rules = load_rules spec_path in
  let base = load_run a and cand = load_run b in
  let medians = List.map (fun (w, ms) -> (w, List.map (fun (m, vs) -> (m, median vs)) ms)) in
  let spread_of set w m =
    match Option.bind (List.assoc_opt w set) (List.assoc_opt m) with
    | Some (_ :: _ as vs) -> spread vs
    | _ -> nan
  in
  let report = W.Compare.compare_sets ~rules ~base:(medians base) ~cand:(medians cand) () in
  Printf.printf "%-20s %-20s %14s %14s %9s %7s  %s\n" "workload" "metric" "A median" "B median"
    "delta" "bound" "verdict";
  (* A pair whose passes spread wider than the bound on either side
     cannot be judged: report it as unresolved. *)
  let unresolved = ref 0 in
  List.iter
    (fun (f : W.Compare.finding) ->
      let rule = List.find (fun (r : W.Compare.rule) -> r.metric = f.metric) rules in
      let wide =
        not
          (spread_of base f.cell f.metric <= rule.threshold
          && spread_of cand f.cell f.metric <= rule.threshold)
      in
      if wide then incr unresolved;
      Printf.printf "%-20s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n" f.cell f.metric f.base
        f.cand f.delta_pct (100. *. rule.threshold)
        (if wide then "unresolved" else W.Compare.verdict_to_string f.verdict))
    report.findings;
  List.iter (fun c -> Printf.printf "missing workload in B: %s\n" c) report.missing;
  Printf.printf "\n%d regressed, %d improved, %d unchanged, %d unresolved\n"
    (W.Compare.count W.Compare.Regressed report)
    (W.Compare.count W.Compare.Improved report)
    (W.Compare.count W.Compare.Unchanged report - !unresolved)
    !unresolved;
  if not (W.Compare.ok report) then exit 1

(* ---- Command line --------------------------------------------------------- *)

let () =
  let cmd, args =
    match List.tl (Array.to_list Sys.argv) with
    | (("run" | "trace" | "compare" | "pass") as c) :: rest -> (c, rest)
    | args -> ("harness", args)
  in
  let rec parse opts pos = function
    | (("--traced" | "--setup-only") as flag) :: rest -> parse ((flag, "") :: opts) pos rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: opts) pos rest
    | k :: _ when String.starts_with ~prefix:"--" k -> fail "%s needs a value" k
    | p :: rest -> parse opts (p :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  let opts, positional = parse [] [] args in
  let get k = List.assoc_opt k opts in
  let number k conv d =
    match get k with
    | None -> d
    | Some v -> ( match conv v with Some x -> x | None -> fail "%s: bad value %S" k v)
  in
  let seed = number "--seed" int_of_string_opt 11 in
  let scale = number "--scale" float_of_string_opt 1. in
  let workload () =
    match get "--workload" with
    | Some n -> find_workload n
    | None -> fail "--workload is required"
  in
  let selected () =
    match get "--workloads" with
    | None -> workloads
    | Some names -> List.map find_workload (String.split_on_char ',' names)
  in
  match (cmd, positional) with
  | "pass", [] ->
      print_pass
        (run_pass ~setup_only:(get "--setup-only" <> None) ~traced:(get "--traced" <> None)
           ~scale ~seed (workload ()))
  | "run", [] ->
      run_cmd ~seed ~reps:(max 1 (number "--reps" int_of_string_opt 3)) ~selected:(selected ())
        ~scale ~out:(get "--out")
  | "trace", [] -> trace_cmd ~seed ~selected:(selected ()) ~scale
  | "compare", [ a; b ] ->
      compare_cmd ~spec_path:(Option.value (get "--spec") ~default:"BENCHMARK.json") a b
  | "harness", [] ->
      let trace =
        match get "--trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> fail "--trace must be 0 or 1, not %s" v
      in
      harness ~seed ~seconds:(number "--seconds" float_of_string_opt 10.) ~trace ~scale
        (workload ())
  | _ ->
      fail
        "usage: replibench run|trace [--seed N] [--workloads a,b] [--reps N] [--out F]\n\
        \       replibench compare A.json B.json [--spec BENCHMARK.json]\n\
        \       replibench --workload W --seed N --seconds S --trace 0|1"
