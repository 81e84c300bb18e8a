(* The canonical run record: one finished run distilled into a single
   versioned, byte-deterministic JSON document. Every observability
   signal the repo measures feeds this one schema — throughput and
   percentile latency (Runner), msgs/txn plus the single-transaction
   causal census (Msg_dag), drop counters (Network), saturation findings
   (Saturation over the sampled series), the consistency-audit staleness
   summary (Audit) and the engine's deterministic event counter — so
   that sweeps, baselines and cross-run comparisons all speak about the
   same object.

   A record has two halves. The identity half (technique, config, seed,
   cluster shape, workload) is a typed record. The measured half is
   declared once, in [table] below: each entry names its flat metric,
   its JSON location, its kind, its better direction and how it is read
   from the run. [of_run], [to_json], [of_json], [metrics] and
   [normalize] are folds over that table. *)

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

type direction = Lower_better | Higher_better
type kind = Int | Float | Bool

(* What a measured entry is read from: the finished run and the
   optional probe census (messages, steps). *)
type source = { run : Runner.result; census : (int * int) option }

type field = {
  name : string option;  (* flat metric name; None: recorded, not compared *)
  path : string list;  (* JSON location, outermost key first *)
  kind : kind;
  better : direction;
  optional : bool;  (* in a section present exactly when its source is *)
  read : source -> float option;
}

(* One table entry, over the value its section is read from. Values are
   held as floats: ints exactly, bools as 1/0. *)
type 'a entry = string option * string * kind * direction * ('a -> float)

let int ?(better = Lower_better) name path get : _ entry =
  (Some name, path, Int, better, fun x -> float_of_int (get x))

let num ?(better = Lower_better) name path get : _ entry =
  (Some name, path, Float, better, get)

let flag ?(better = Lower_better) name path get : _ entry =
  (Some name, path, Bool, better, fun x -> if get x then 1. else 0.)

let section ~optional select entries =
  List.map
    (fun ((name, path, kind, better, get) : _ entry) ->
      {
        name;
        path = String.split_on_char '.' path;
        kind;
        better;
        optional;
        read = (fun s -> Option.map get (select s));
      })
    entries

let always entries = section ~optional:false (fun s -> Some s.run) entries
let optional select entries = section ~optional:true select entries

(* The measured half of a record, in JSON order, one line per entry.
   [to_json] nests each entry at its path, in table order. *)
let table =
  let open Runner in
  let up = Higher_better in
  let lat f (r : Runner.result) = f r.latency_ms in
  Array.of_list
  @@ always [
       int "committed" "outcome.committed" ~better:up (fun r -> r.committed);
       int "aborted" "outcome.aborted" (fun r -> r.aborted);
       int "unanswered" "outcome.unanswered" (fun r -> r.unanswered);
       flag "converged" "outcome.converged" ~better:up (fun r -> r.converged);
       flag "serializable" "outcome.serializable" ~better:up (fun r -> r.serializable);
       num "throughput" "perf.throughput_tps" ~better:up (fun r -> r.throughput);
       num "latency_mean" "perf.latency_ms.mean" (lat (fun l -> l.Sim.Summary.mean));
       num "latency_p50" "perf.latency_ms.p50" (lat (fun l -> l.p50));
       num "latency_p95" "perf.latency_ms.p95" (lat (fun l -> l.p95));
       num "latency_p99" "perf.latency_ms.p99" (lat (fun l -> l.p99));
       num "latency_max" "perf.latency_ms.max" (lat (fun l -> l.max));
       int "messages" "perf.messages" (fun r -> r.messages);
       num "msgs_per_txn" "perf.msgs_per_txn" (fun r -> r.messages_per_txn);
     ]
  @ optional (fun s -> s.census) [
      int "census_msgs" "census.messages" fst;
      int "census_steps" "census.steps" snd;
    ]
  @ always [
      int "drops" "drops.total" (fun r -> r.dropped);
      int "drops_loss" "drops.loss" (fun r -> r.dropped_loss);
      int "drops_crashed" "drops.crashed" (fun r -> r.dropped_crashed);
      int "drops_partitioned" "drops.partitioned" (fun r -> r.dropped_partitioned);
      int "saturation_findings" "saturation_findings" (fun r -> List.length (Sim.Saturation.analyze r.series));
      int "events" "engine.events" (fun r -> r.events);
      (* wall time: the one nondeterministic entry, never compared *)
      (None, "engine.wall_s", Float, Lower_better, fun r -> r.wall_s);
    ]
  @ optional (fun s -> s.run.audit) Audit.[
      num "visibility_p95_ms" "audit.visibility_p95_ms" (fun a -> a.visibility_ms.Sim.Summary.p95);
      num "post_commit_max_ms" "audit.post_commit_max_ms" (fun a -> a.post_commit_max_ms);
      num "session_window_max_ms" "audit.session_window_max_ms" (fun a -> a.session_window_max_ms);
      int "stale_reads" "audit.stale_reads" (fun a -> a.stale_reads);
      int "ryw_violations" "audit.ryw_violations" (fun a -> a.ryw_violations);
      int "mr_violations" "audit.mr_violations" (fun a -> a.mr_violations);
      int "skew_pairs" "audit.skew_pairs" (fun a -> a.skew_pairs);
      flag "drained" "audit.drained" ~better:up (fun a -> a.drained);
    ]
  @ optional (fun s -> s.run.router) Router.[
      flag "router_sticky" "router.sticky" (fun r -> r.sticky);
      int "router_reads" "router.reads_routed" (fun r -> r.reads_routed);
      int "router_writes" "router.writes_routed" (fun r -> r.writes_routed);
      int "router_sticky_reads" "router.sticky_reads" (fun r -> r.sticky_reads);
      int "router_fallback_reads" "router.fallback_reads" (fun r -> r.fallback_reads);
      int "router_retries" "router.retries" (fun r -> r.retries);
      int "router_failovers" "router.failovers" (fun r -> r.failovers);
      int "router_gave_up" "router.gave_up" (fun r -> r.gave_up);
      int "router_primary_moves" "router.primary_moves" (fun r -> r.primary_moves);
    ]

(* One slot per [table] entry; None where the entry's section is absent. *)
type measured = float option array

type t = {
  technique : string;
  config : (string * string) list;  (* non-default settings, sorted *)
  seed : int;
  n_replicas : int;
  n_clients : int;
  workload : workload;
  measured : measured;
}

let arrival_to_string = function
  | `Closed -> "closed"
  | `Poisson rate -> Printf.sprintf "poisson:%g" rate

let of_run ~technique ~config ~seed ~n_replicas ~n_clients ~arrival
    ~(spec : Spec.t) ?census (r : Runner.result) =
  let source = { run = r; census } in
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
    measured = Array.map (fun f -> f.read source) table;
  }

(* Zero the unnamed (wall-clock) entries. *)
let normalize t =
  let zero i v = if table.(i).name = None then Option.map (fun _ -> 0.) v else v in
  { t with measured = Array.mapi zero t.measured }

(* ---- flat metric view ------------------------------------------------- *)

(* The flat (name, value) view every cross-run consumer works from: the
   sweep heatmap's [--cell] axis and the compare engine's rules both
   index records by these names. *)
let metrics t =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun i f ->
            match (f.name, t.measured.(i)) with
            | Some n, Some v -> Some (n, v)
            | _ -> None)
          table))

let metric t name = List.assoc_opt name (metrics t)
let metric_names = List.filter_map (fun f -> f.name) (Array.to_list table)

let direction name =
  Array.find_map
    (fun f -> if f.name = Some name then Some f.better else None)
    table

(* ---- rendering ------------------------------------------------------- *)

let render kind v : Sim.Json.t =
  match kind with Int -> Int (int_of_float v) | Float -> Num v | Bool -> Bool (v <> 0.)

(* [members] with [v] at [path]: into the object met along the path, or
   a new one appended. *)
let rec insert members path v =
  match path with
  | [] -> members
  | [ k ] -> members @ [ (k, v) ]
  | k :: rest -> (
      match List.assoc_opt k members with
      | Some (Sim.Json.Obj inner) ->
          let inner = Sim.Json.Obj (insert inner rest v) in
          List.map (fun (k', x) -> (k', if k' = k then inner else x)) members
      | _ -> members @ [ (k, Sim.Json.Obj (insert [] rest v)) ])

let to_json t =
  let w = t.workload in
  let workload =
    Sim.Json.
      [ ("keys", Int w.keys); ("zipf", Num w.zipf); ("updates", Num w.updates); ("ops", Int w.ops);
        ("txns_per_client", Int w.txns_per_client); ("shards", Int w.shards);
        ("cross", Num w.cross); ("arrival", Str w.arrival); ("shape", Str w.shape) ]
    @ Option.fold ~none:[] ~some:(fun f -> [ ("flash", Sim.Json.Str f) ]) w.flash
  in
  let identity =
    Sim.Json.
      [ ("type", Str "run_record"); ("record_version", Int schema_version);
        ("tool_version", Str Report.version); ("technique", Str t.technique);
        ("seed", Int t.seed); ("n_replicas", Int t.n_replicas); ("n_clients", Int t.n_clients);
        ("config", Report.config_json t.config); ("workload", Obj workload) ]
  in
  let members = ref identity in
  Array.iteri
    (fun i f ->
      Option.iter (fun v -> members := insert !members f.path (render f.kind v)) t.measured.(i))
    table;
  Sim.Json.to_string (Obj !members)

(* ---- parsing --------------------------------------------------------- *)

let kind_name = function Int -> "integer" | Float -> "number" | Bool -> "bool"

(* The value at [path] as a float of [kind]; errors name the field. *)
let value kind path doc =
  let key = String.concat "." path in
  match (kind, Sim.Json.path path doc) with
  | Float, Some (Sim.Json.Num v) -> Ok v
  | Int, Some (Sim.Json.Num v) when Float.is_integer v -> Ok v
  | Int, Some (Sim.Json.Num v) ->
      Error (Printf.sprintf "field %S must be an integer, got %g" key v)
  | Bool, Some (Sim.Json.Bool b) -> Ok (if b then 1. else 0.)
  | _ -> Error (Printf.sprintf "missing or non-%s field %S" (kind_name kind) key)

let of_json doc =
  let ( let* ) = Result.bind in
  let at path = String.split_on_char '.' path in
  let int_ path = Result.map int_of_float (value Int (at path) doc) in
  let num path = value Float (at path) doc in
  let str path =
    match Sim.Json.path (at path) doc with
    | Some (Sim.Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing or non-string field %S" path)
  in
  let* () =
    match Sim.Json.member "type" doc with
    | Some (Sim.Json.Str "run_record") -> Ok ()
    | _ -> Error "\"type\" must be \"run_record\""
  in
  let* v = int_ "record_version" in
  let* () =
    if v = schema_version then Ok ()
    else
      Error
        (Printf.sprintf "record_version %d (this tool reads version %d)" v
           schema_version)
  in
  let* technique = str "technique" in
  let* seed = int_ "seed" in
  let* n_replicas = int_ "n_replicas" in
  let* n_clients = int_ "n_clients" in
  let* config =
    match Sim.Json.member "config" doc with
    | Some (Sim.Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Sim.Json.Str s -> Ok ((k, s) :: acc)
            | _ -> Error (Printf.sprintf "non-string config value for %S" k))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error "missing \"config\" object"
  in
  let* keys = int_ "workload.keys" in
  let* zipf = num "workload.zipf" in
  let* updates = num "workload.updates" in
  let* ops = int_ "workload.ops" in
  let* txns_per_client = int_ "workload.txns_per_client" in
  let* shards = int_ "workload.shards" in
  let* cross = num "workload.cross" in
  let* arrival = str "workload.arrival" in
  let* shape = str "workload.shape" in
  let* flash =
    match Sim.Json.path [ "workload"; "flash" ] doc with
    | None -> Ok None
    | Some (Sim.Json.Str s) -> Ok (Some s)
    | Some _ -> Error "non-string field \"workload.flash\""
  in
  (* An optional section is absent as a whole or present in full. *)
  let* measured =
    Array.fold_right
      (fun f acc ->
        let* acc = acc in
        if f.optional && Sim.Json.member (List.hd f.path) doc = None then
          Ok (None :: acc)
        else
          let* v = value f.kind f.path doc in
          Ok (Some v :: acc))
      table (Ok [])
  in
  let workload =
    { keys; zipf; updates; ops; txns_per_client; shards; cross; arrival;
      shape; flash }
  in
  Ok { technique; config; seed; n_replicas; n_clients; workload;
       measured = Array.of_list measured }

let of_string s =
  match Sim.Json.parse (String.trim s) with
  | Error e -> Error ("parse error: " ^ e)
  | Ok doc -> of_json doc

(* ---- identity -------------------------------------------------------- *)

(* The routed run's stickiness: a config echo kept in the router
   section, None when the run was not routed. *)
let sticky =
  let slot =
    Option.get (Array.find_index (fun f -> f.path = [ "router"; "sticky" ]) table)
  in
  fun t -> Option.map (fun v -> v <> 0.) t.measured.(slot)

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
    (match sticky t with
    | None -> ""
    | Some true -> " router=sticky"
    | Some false -> " router=on")
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
