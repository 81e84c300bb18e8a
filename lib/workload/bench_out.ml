(* Machine-readable bench results: every perf* experiment accumulates
   (metric, technique, params, value) rows into one of these and writes
   BENCH_<name>.json next to the working directory. The file schema is
   validated by [replisim bench-check] in CI, so the writer and the
   checker (a minimal hand-rolled JSON parser — no external JSON
   dependency) live together here. *)

type row = {
  metric : string;
  technique : string;
  unit_ : string;
  params : (string * string) list;
  value : float;
}

type t = {
  bench : string;
  seed : int;
  n_replicas : int;
  config : (string * string) list;
      (* non-default technique settings the bench ran under, echoed into
         the header so the file names the configuration that produced it *)
  mutable rows_rev : row list;
}

let create ?(config = []) ~bench ~seed ~n_replicas () =
  { bench; seed; n_replicas; config; rows_rev = [] }

let add t ~metric ~technique ?(unit_ = "") ?(params = []) value =
  t.rows_rev <- { metric; technique; unit_; params; value } :: t.rows_rev

let esc = Sim.Metrics.json_escape
let jf = Sim.Metrics.json_float

let row_to_json r =
  let params =
    r.params
    |> List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v))
    |> String.concat ","
  in
  Printf.sprintf
    "{\"metric\":\"%s\",\"technique\":\"%s\",\"unit\":\"%s\",\"params\":{%s},\"value\":%s}"
    (esc r.metric) (esc r.technique) (esc r.unit_) params (jf r.value)

let to_json t =
  let config =
    match t.config with
    | [] -> ""
    | kvs ->
        ",\"config\":{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (esc k) (esc v))
               kvs)
        ^ "}"
  in
  Printf.sprintf
    "{\"type\":\"bench\",\"version\":\"%s\",\"bench\":\"%s\",\"seed\":%d,\"n_replicas\":%d%s,\"results\":[%s]}"
    Report.version (esc t.bench) t.seed t.n_replicas config
    (String.concat "," (List.rev_map row_to_json t.rows_rev |> List.rev))

let filename t = "BENCH_" ^ t.bench ^ ".json"

let write ?(dir = ".") t =
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  path

(* ---- JSON parsing + schema validation (for [replisim bench-check]) --- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              (* keep the escape undecoded; fields we validate are ASCII *)
              Buffer.add_string buf ("\\u" ^ String.sub s !pos 4);
              pos := !pos + 4;
              go ()
          | Some c -> advance (); Buffer.add_char buf c; go ()
          | None -> fail "unterminated escape")
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); Arr [] end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at byte %d" !pos)
    else Ok v
  with Bad msg -> Error msg

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

(* Benches whose files must carry specific metrics: a meta-benchmark
   that stops emitting its headline numbers should fail bench-check, not
   silently thin out. *)
let required_metrics = function
  | "perf15" -> [ "events_per_sec"; "txns_per_sec"; "peak_heap_words" ]
  | "perf16" -> [ "probe_messages"; "throughput"; "latency_p95" ]
  | "perf17" ->
      [ "visibility_p95_ms"; "post_commit_window_ms"; "audit_drained" ]
  | "perf18" ->
      [ "cells"; "best_latency_p95"; "best_throughput"; "worst_msgs_per_txn" ]
  | _ -> []

let row_metric row = match member "metric" row with Some (Str m) -> Some m | _ -> None

let row_value row = match member "value" row with Some (Num v) -> Some v | _ -> None

(* Schema check for one BENCH_*.json document. *)
let validate_json doc =
  let require_str k j =
    match member k j with
    | Some (Str _) -> Ok ()
    | _ -> Error (Printf.sprintf "missing or non-string field %S" k)
  in
  let require_num k j =
    match member k j with
    | Some (Num _) -> Ok ()
    | _ -> Error (Printf.sprintf "missing or non-number field %S" k)
  in
  let ( let* ) = Result.bind in
  let* () =
    match member "type" doc with
    | Some (Str "bench") -> Ok ()
    | _ -> Error "\"type\" must be \"bench\""
  in
  let* () = require_str "version" doc in
  let* () = require_str "bench" doc in
  let* () = require_num "seed" doc in
  let* () = require_num "n_replicas" doc in
  match member "results" doc with
  | Some (Arr rows) ->
      if rows = [] then Error "\"results\" is empty"
      else
        let* () =
          List.fold_left
            (fun acc row ->
              let* () = acc in
              let* () = require_str "metric" row in
              let* () = require_str "technique" row in
              let* () = require_str "unit" row in
              let* () = require_num "value" row in
              match member "params" row with
              | Some (Obj _) -> Ok ()
              | _ -> Error "result row missing \"params\" object")
            (Ok ()) rows
        in
        let bench =
          match member "bench" doc with Some (Str b) -> b | _ -> ""
        in
        let metrics = List.filter_map row_metric rows in
        List.fold_left
          (fun acc required ->
            let* () = acc in
            if List.mem required metrics then Ok ()
            else
              Error
                (Printf.sprintf "bench %S must report metric %S" bench
                   required))
          (Ok ())
          (required_metrics bench)
  | _ -> Error "missing \"results\" array"

type bound = Floor | Ceiling

(* A bound on the max value of [metric] across the rows. Max for both
   directions: a bench may report the same metric for several
   configurations (tracing on/off), and the floor gates the headline
   (best) number while the ceiling gates the worst — how msgs/txn and
   staleness-window metrics are gated from above. *)
let check_bound doc bound ~metric ~limit =
  match member "results" doc with
  | Some (Arr rows) -> (
      let observed =
        List.fold_left
          (fun acc row ->
            match (row_metric row, row_value row) with
            | Some m, Some v when m = metric -> (
                match acc with Some b -> Some (Float.max b v) | None -> Some v)
            | _ -> acc)
          None rows
      in
      match observed with
      | None ->
          (* Name what IS in the file: a typo'd gate metric should point
             straight at the spelling, not send the user to the JSON. *)
          let present =
            List.sort_uniq String.compare (List.filter_map row_metric rows)
          in
          Error
            (Printf.sprintf "no rows with metric %S (file has: %s)" metric
               (String.concat ", " present))
      | Some v -> (
          (* Report the observation and its distance from the gate, not
             just pass/fail: the margin is what tells the reader whether
             this is noise or a collapse. *)
          let margin = Float.abs (v -. limit) in
          let pct =
            if limit <> 0. then margin /. Float.abs limit *. 100. else 100.
          in
          match bound with
          | Floor when v >= limit -> Ok v
          | Ceiling when v <= limit -> Ok v
          | Floor ->
              Error
                (Printf.sprintf
                   "metric %S observed %g is below floor %g (margin %g, %.1f%% \
                    short)"
                   metric v limit margin pct)
          | Ceiling ->
              Error
                (Printf.sprintf
                   "metric %S observed %g is above ceiling %g (margin %g, \
                    %.1f%% over)"
                   metric v limit margin pct)))
  | _ -> Error "missing \"results\" array"

let validate_file path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error e
  | contents -> (
      match parse (String.trim contents) with
      | Error e -> Error ("parse error: " ^ e)
      | Ok doc -> validate_json doc)
