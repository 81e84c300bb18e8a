(* The canonical run record: one finished run distilled into a single
   versioned, byte-deterministic JSON document. Every observability
   signal the repo measures feeds this one schema — throughput and
   percentile latency (Runner), msgs/txn plus the single-transaction
   causal census (Msg_dag), drop counters (Network), saturation findings
   (Saturation over the sampled series), the consistency-audit staleness
   summary (Audit) and the engine's deterministic event counter — so
   that sweeps, baselines and cross-run comparisons all speak about the
   same object. [normalize] zeroes the only wall-clock-derived field,
   after which a same-seed re-run renders byte-identically. *)

(* Bump when a field is added/renamed; [of_json] accepts only this
   version, so a stale baseline fails loudly instead of comparing
   garbage. v2 added the session-workload fields (shape, flash) and the
   routing-tier section. *)
let schema_version = 2

type workload = {
  keys : int;
  zipf : float;  (* zipfian skew theta; 0 = uniform *)
  updates : float;
  ops : int;
  txns_per_client : int;
  shards : int;
  cross : float;
  arrival : string;  (* "closed" or "poisson:<rate>" *)
  shape : string;  (* "mixed" or "tpcb" *)
  flash : string option;  (* flash-crowd phase, when declared *)
}

(* Routing-tier section: config echo plus the router's own counters. *)
type router = {
  sticky : bool;
  reads_routed : int;
  writes_routed : int;
  sticky_reads : int;
  fallback_reads : int;
  router_retries : int;
  failovers : int;
  gave_up : int;
  primary_moves : int;
}

type audit = {
  visibility_p95_ms : float;
  post_commit_max_ms : float;
  session_window_max_ms : float;
  stale_reads : int;
  ryw_violations : int;
  mr_violations : int;
  skew_pairs : int;
  drained : bool;
}

type t = {
  technique : string;
  config : (string * string) list;  (* non-default settings, sorted *)
  seed : int;
  n_replicas : int;
  n_clients : int;
  workload : workload;
  committed : int;
  aborted : int;
  unanswered : int;
  converged : bool;
  serializable : bool;
  throughput : float;  (* committed / virtual makespan — deterministic *)
  latency_mean_ms : float;
  latency_p50_ms : float;
  latency_p95_ms : float;
  latency_p99_ms : float;
  latency_max_ms : float;
  messages : int;
  msgs_per_txn : float;
  census : (int * int) option;  (* probe (messages, steps), when measured *)
  drops : int;
  drops_loss : int;
  drops_crashed : int;
  drops_partitioned : int;
  saturation_findings : int;
  events : int;  (* engine events executed — deterministic *)
  wall_s : float;  (* wall time — the one nondeterministic field *)
  audit : audit option;
  router : router option;
}

let arrival_to_string = function
  | `Closed -> "closed"
  | `Poisson rate -> Printf.sprintf "poisson:%g" rate

let of_run ~technique ~config ~seed ~n_replicas ~n_clients ~arrival
    ~(spec : Spec.t) ?census (r : Runner.result) =
  {
    technique;
    config = List.sort compare config;
    seed;
    n_replicas;
    n_clients;
    workload =
      {
        keys = spec.Spec.n_keys;
        zipf = spec.Spec.key_skew;
        updates = spec.Spec.update_ratio;
        ops = spec.Spec.ops_per_txn;
        txns_per_client = spec.Spec.txns_per_client;
        shards = spec.Spec.shards;
        cross = spec.Spec.cross_shard;
        arrival = arrival_to_string arrival;
        shape = Spec.shape_to_string spec.Spec.shape;
        flash = Option.map Spec.flash_crowd_to_string spec.Spec.flash_crowd;
      };
    committed = r.Runner.committed;
    aborted = r.Runner.aborted;
    unanswered = r.Runner.unanswered;
    converged = r.Runner.converged;
    serializable = r.Runner.serializable;
    throughput = r.Runner.throughput;
    latency_mean_ms = r.Runner.latency_ms.Sim.Summary.mean;
    latency_p50_ms = r.Runner.latency_ms.Sim.Summary.p50;
    latency_p95_ms = r.Runner.latency_ms.Sim.Summary.p95;
    latency_p99_ms = r.Runner.latency_ms.Sim.Summary.p99;
    latency_max_ms = r.Runner.latency_ms.Sim.Summary.max;
    messages = r.Runner.messages;
    msgs_per_txn = r.Runner.messages_per_txn;
    census;
    drops = r.Runner.dropped;
    drops_loss = r.Runner.dropped_loss;
    drops_crashed = r.Runner.dropped_crashed;
    drops_partitioned = r.Runner.dropped_partitioned;
    saturation_findings =
      List.length (Sim.Saturation.analyze r.Runner.series);
    events = r.Runner.events;
    wall_s = r.Runner.wall_s;
    audit =
      Option.map
        (fun (a : Audit.summary) ->
          {
            visibility_p95_ms = a.Audit.visibility_ms.Sim.Summary.p95;
            post_commit_max_ms = a.Audit.post_commit_max_ms;
            session_window_max_ms = a.Audit.session_window_max_ms;
            stale_reads = a.Audit.stale_reads;
            ryw_violations = a.Audit.ryw_violations;
            mr_violations = a.Audit.mr_violations;
            skew_pairs = a.Audit.skew_pairs;
            drained = a.Audit.drained;
          })
        r.Runner.audit;
    router =
      Option.map
        (fun (s : Router.stats) ->
          {
            sticky = s.Router.sticky;
            reads_routed = s.Router.reads_routed;
            writes_routed = s.Router.writes_routed;
            sticky_reads = s.Router.sticky_reads;
            fallback_reads = s.Router.fallback_reads;
            router_retries = s.Router.retries;
            failovers = s.Router.failovers;
            gave_up = s.Router.gave_up;
            primary_moves = s.Router.primary_moves;
          })
        r.Runner.router;
  }

let normalize t = { t with wall_s = 0. }

(* ---- rendering ------------------------------------------------------- *)

let esc = Sim.Metrics.json_escape
let jf = Sim.Metrics.json_float

let config_json config =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v))
         config)
  ^ "}"

let to_json t =
  let w = t.workload in
  let census =
    match t.census with
    | None -> ""
    | Some (m, s) ->
        Printf.sprintf ",\"census\":{\"messages\":%d,\"steps\":%d}" m s
  in
  let audit =
    match t.audit with
    | None -> ""
    | Some a ->
        Printf.sprintf
          ",\"audit\":{\"visibility_p95_ms\":%s,\"post_commit_max_ms\":%s,\
           \"session_window_max_ms\":%s,\"stale_reads\":%d,\
           \"ryw_violations\":%d,\"mr_violations\":%d,\"skew_pairs\":%d,\
           \"drained\":%b}"
          (jf a.visibility_p95_ms) (jf a.post_commit_max_ms)
          (jf a.session_window_max_ms)
          a.stale_reads a.ryw_violations a.mr_violations a.skew_pairs
          a.drained
  in
  let router =
    match t.router with
    | None -> ""
    | Some r ->
        Printf.sprintf
          ",\"router\":{\"sticky\":%b,\"reads_routed\":%d,\
           \"writes_routed\":%d,\"sticky_reads\":%d,\"fallback_reads\":%d,\
           \"retries\":%d,\"failovers\":%d,\"gave_up\":%d,\
           \"primary_moves\":%d}"
          r.sticky r.reads_routed r.writes_routed r.sticky_reads
          r.fallback_reads r.router_retries r.failovers r.gave_up
          r.primary_moves
  in
  let flash =
    match w.flash with
    | None -> ""
    | Some f -> Printf.sprintf ",\"flash\":\"%s\"" (esc f)
  in
  Printf.sprintf
    "{\"type\":\"run_record\",\"record_version\":%d,\"tool_version\":\"%s\",\
     \"technique\":\"%s\",\"seed\":%d,\"n_replicas\":%d,\"n_clients\":%d,\
     \"config\":%s,\
     \"workload\":{\"keys\":%d,\"zipf\":%s,\"updates\":%s,\"ops\":%d,\
     \"txns_per_client\":%d,\"shards\":%d,\"cross\":%s,\"arrival\":\"%s\",\
     \"shape\":\"%s\"%s},\
     \"outcome\":{\"committed\":%d,\"aborted\":%d,\"unanswered\":%d,\
     \"converged\":%b,\"serializable\":%b},\
     \"perf\":{\"throughput_tps\":%s,\"latency_ms\":{\"mean\":%s,\"p50\":%s,\
     \"p95\":%s,\"p99\":%s,\"max\":%s},\"messages\":%d,\"msgs_per_txn\":%s}\
     %s,\
     \"drops\":{\"total\":%d,\"loss\":%d,\"crashed\":%d,\"partitioned\":%d},\
     \"saturation_findings\":%d,\
     \"engine\":{\"events\":%d,\"wall_s\":%s}%s%s}"
    schema_version Report.version (esc t.technique) t.seed t.n_replicas
    t.n_clients
    (config_json t.config)
    w.keys (jf w.zipf) (jf w.updates) w.ops w.txns_per_client w.shards
    (jf w.cross) (esc w.arrival) (esc w.shape) flash t.committed t.aborted
    t.unanswered t.converged t.serializable (jf t.throughput)
    (jf t.latency_mean_ms) (jf t.latency_p50_ms) (jf t.latency_p95_ms)
    (jf t.latency_p99_ms) (jf t.latency_max_ms) t.messages
    (jf t.msgs_per_txn) census t.drops t.drops_loss t.drops_crashed
    t.drops_partitioned t.saturation_findings t.events (jf t.wall_s) audit
    router

(* ---- parsing --------------------------------------------------------- *)

let member k = function
  | Bench_out.Obj fields -> List.assoc_opt k fields
  | _ -> None

let of_json doc =
  let ( let* ) = Result.bind in
  let str k j =
    match member k j with
    | Some (Bench_out.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing or non-string field %S" k)
  in
  let num k j =
    match member k j with
    | Some (Bench_out.Num v) -> Ok v
    | _ -> Error (Printf.sprintf "missing or non-number field %S" k)
  in
  let int_ k j = Result.map int_of_float (num k j) in
  let bool_ k j =
    match member k j with
    | Some (Bench_out.Bool b) -> Ok b
    | _ -> Error (Printf.sprintf "missing or non-bool field %S" k)
  in
  let obj k j =
    match member k j with
    | Some (Bench_out.Obj _ as o) -> Ok o
    | _ -> Error (Printf.sprintf "missing or non-object field %S" k)
  in
  let* () =
    match member "type" doc with
    | Some (Bench_out.Str "run_record") -> Ok ()
    | _ -> Error "\"type\" must be \"run_record\""
  in
  let* v = int_ "record_version" doc in
  let* () =
    if v = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "record_version %d (this tool reads version %d)" v
           schema_version)
  in
  let* technique = str "technique" doc in
  let* seed = int_ "seed" doc in
  let* n_replicas = int_ "n_replicas" doc in
  let* n_clients = int_ "n_clients" doc in
  let* config =
    match member "config" doc with
    | Some (Bench_out.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Bench_out.Str s -> Ok ((k, s) :: acc)
            | _ -> Error (Printf.sprintf "non-string config value for %S" k))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "missing \"config\" object"
  in
  let* w = obj "workload" doc in
  let* keys = int_ "keys" w in
  let* zipf = num "zipf" w in
  let* updates = num "updates" w in
  let* ops = int_ "ops" w in
  let* txns_per_client = int_ "txns_per_client" w in
  let* shards = int_ "shards" w in
  let* cross = num "cross" w in
  let* arrival = str "arrival" w in
  let* shape = str "shape" w in
  let* flash =
    match member "flash" w with
    | None -> Ok None
    | Some (Bench_out.Str s) -> Ok (Some s)
    | Some _ -> Error "non-string field \"flash\""
  in
  let* o = obj "outcome" doc in
  let* committed = int_ "committed" o in
  let* aborted = int_ "aborted" o in
  let* unanswered = int_ "unanswered" o in
  let* converged = bool_ "converged" o in
  let* serializable = bool_ "serializable" o in
  let* p = obj "perf" doc in
  let* throughput = num "throughput_tps" p in
  let* lat = obj "latency_ms" p in
  let* latency_mean_ms = num "mean" lat in
  let* latency_p50_ms = num "p50" lat in
  let* latency_p95_ms = num "p95" lat in
  let* latency_p99_ms = num "p99" lat in
  let* latency_max_ms = num "max" lat in
  let* messages = int_ "messages" p in
  let* msgs_per_txn = num "msgs_per_txn" p in
  let* census =
    match member "census" doc with
    | None -> Ok None
    | Some c ->
        let* m = int_ "messages" c in
        let* s = int_ "steps" c in
        Ok (Some (m, s))
  in
  let* d = obj "drops" doc in
  let* drops = int_ "total" d in
  let* drops_loss = int_ "loss" d in
  let* drops_crashed = int_ "crashed" d in
  let* drops_partitioned = int_ "partitioned" d in
  let* saturation_findings = int_ "saturation_findings" doc in
  let* e = obj "engine" doc in
  let* events = int_ "events" e in
  let* wall_s = num "wall_s" e in
  let* audit =
    match member "audit" doc with
    | None -> Ok None
    | Some a ->
        let* visibility_p95_ms = num "visibility_p95_ms" a in
        let* post_commit_max_ms = num "post_commit_max_ms" a in
        let* session_window_max_ms = num "session_window_max_ms" a in
        let* stale_reads = int_ "stale_reads" a in
        let* ryw_violations = int_ "ryw_violations" a in
        let* mr_violations = int_ "mr_violations" a in
        let* skew_pairs = int_ "skew_pairs" a in
        let* drained = bool_ "drained" a in
        Ok
          (Some
             {
               visibility_p95_ms;
               post_commit_max_ms;
               session_window_max_ms;
               stale_reads;
               ryw_violations;
               mr_violations;
               skew_pairs;
               drained;
             })
  in
  let* router =
    match member "router" doc with
    | None -> Ok None
    | Some r ->
        let* sticky = bool_ "sticky" r in
        let* reads_routed = int_ "reads_routed" r in
        let* writes_routed = int_ "writes_routed" r in
        let* sticky_reads = int_ "sticky_reads" r in
        let* fallback_reads = int_ "fallback_reads" r in
        let* router_retries = int_ "retries" r in
        let* failovers = int_ "failovers" r in
        let* gave_up = int_ "gave_up" r in
        let* primary_moves = int_ "primary_moves" r in
        Ok
          (Some
             {
               sticky;
               reads_routed;
               writes_routed;
               sticky_reads;
               fallback_reads;
               router_retries;
               failovers;
               gave_up;
               primary_moves;
             })
  in
  Ok
    {
      technique;
      config;
      seed;
      n_replicas;
      n_clients;
      workload =
        {
          keys;
          zipf;
          updates;
          ops;
          txns_per_client;
          shards;
          cross;
          arrival;
          shape;
          flash;
        };
      committed;
      aborted;
      unanswered;
      converged;
      serializable;
      throughput;
      latency_mean_ms;
      latency_p50_ms;
      latency_p95_ms;
      latency_p99_ms;
      latency_max_ms;
      messages;
      msgs_per_txn;
      census;
      drops;
      drops_loss;
      drops_crashed;
      drops_partitioned;
      saturation_findings;
      events;
      wall_s;
      audit;
      router;
    }

let of_string s =
  match Bench_out.parse (String.trim s) with
  | Error e -> Error ("parse error: " ^ e)
  | Ok doc -> of_json doc

let load_file path =
  match
    In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error e -> Error e
  | contents -> of_string contents

(* ---- identity -------------------------------------------------------- *)

(* What makes two records "the same cell" for comparison purposes:
   everything the experimenter chose, nothing the run produced. *)
let cell_id t =
  let w = t.workload in
  Printf.sprintf
    "%s n=%d m=%d seed=%d keys=%d zipf=%g u=%g ops=%d txns=%d shards=%d \
     cross=%g %s%s%s%s%s"
    t.technique t.n_replicas t.n_clients t.seed w.keys w.zipf w.updates w.ops
    w.txns_per_client w.shards w.cross w.arrival
    (if w.shape = "mixed" then "" else " shape=" ^ w.shape)
    (match w.flash with None -> "" | Some f -> " flash[" ^ f ^ "]")
    (match t.router with
    | None -> ""
    | Some r -> if r.sticky then " router=sticky" else " router=on")
    (match t.config with
    | [] -> ""
    | kvs ->
        " "
        ^ String.concat ","
            (List.map (fun (k, v) -> k ^ "=" ^ v) kvs))

(* Filesystem-safe name derived from the cell identity. *)
let filename t =
  let id = cell_id t in
  let buf = Buffer.create (String.length id) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' ->
          Buffer.add_char buf c
      | ' ' | ',' -> Buffer.add_char buf '_'
      | '=' -> Buffer.add_char buf '-'
      | _ -> Buffer.add_char buf '_')
    id;
  Buffer.contents buf ^ ".json"

let save ?(dir = ".") t =
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  path

(* ---- flat metric view ------------------------------------------------- *)

(* The flat (name, value) view every cross-run consumer works from: the
   sweep heatmap's [--cell] axis and the compare engine's rules both
   index records by these names. *)
let metrics t =
  let base =
    [
      ("committed", float_of_int t.committed);
      ("aborted", float_of_int t.aborted);
      ("unanswered", float_of_int t.unanswered);
      ("throughput", t.throughput);
      ("latency_mean", t.latency_mean_ms);
      ("latency_p50", t.latency_p50_ms);
      ("latency_p95", t.latency_p95_ms);
      ("latency_p99", t.latency_p99_ms);
      ("latency_max", t.latency_max_ms);
      ("messages", float_of_int t.messages);
      ("msgs_per_txn", t.msgs_per_txn);
      ("drops", float_of_int t.drops);
      ("drops_loss", float_of_int t.drops_loss);
      ("drops_crashed", float_of_int t.drops_crashed);
      ("drops_partitioned", float_of_int t.drops_partitioned);
      ("saturation_findings", float_of_int t.saturation_findings);
      ("events", float_of_int t.events);
      ("converged", if t.converged then 1. else 0.);
      ("serializable", if t.serializable then 1. else 0.);
    ]
  in
  let census =
    match t.census with
    | None -> []
    | Some (m, s) ->
        [
          ("census_msgs", float_of_int m); ("census_steps", float_of_int s);
        ]
  in
  let audit =
    match t.audit with
    | None -> []
    | Some a ->
        [
          ("visibility_p95_ms", a.visibility_p95_ms);
          ("post_commit_max_ms", a.post_commit_max_ms);
          ("session_window_max_ms", a.session_window_max_ms);
          ("stale_reads", float_of_int a.stale_reads);
          ("ryw_violations", float_of_int a.ryw_violations);
          ("mr_violations", float_of_int a.mr_violations);
          ("skew_pairs", float_of_int a.skew_pairs);
          ("drained", if a.drained then 1. else 0.);
        ]
  in
  let router =
    match t.router with
    | None -> []
    | Some r ->
        [
          ("router_sticky", if r.sticky then 1. else 0.);
          ("router_reads", float_of_int r.reads_routed);
          ("router_writes", float_of_int r.writes_routed);
          ("router_sticky_reads", float_of_int r.sticky_reads);
          ("router_fallback_reads", float_of_int r.fallback_reads);
          ("router_retries", float_of_int r.router_retries);
          ("router_failovers", float_of_int r.failovers);
          ("router_gave_up", float_of_int r.gave_up);
          ("router_primary_moves", float_of_int r.primary_moves);
        ]
  in
  base @ census @ audit @ router

let metric t name = List.assoc_opt name (metrics t)

let metric_names =
  [
    "committed";
    "aborted";
    "unanswered";
    "throughput";
    "latency_mean";
    "latency_p50";
    "latency_p95";
    "latency_p99";
    "latency_max";
    "messages";
    "msgs_per_txn";
    "census_msgs";
    "census_steps";
    "drops";
    "drops_loss";
    "drops_crashed";
    "drops_partitioned";
    "saturation_findings";
    "events";
    "converged";
    "serializable";
    "visibility_p95_ms";
    "post_commit_max_ms";
    "session_window_max_ms";
    "stale_reads";
    "ryw_violations";
    "mr_violations";
    "skew_pairs";
    "drained";
    "router_sticky";
    "router_reads";
    "router_writes";
    "router_sticky_reads";
    "router_fallback_reads";
    "router_retries";
    "router_failovers";
    "router_gave_up";
    "router_primary_moves";
  ]
