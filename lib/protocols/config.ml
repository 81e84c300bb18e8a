(* Typed technique configuration: every protocol declares a schema (key,
   type, default, doc), the only description of its settings, and the
   CLI resolves `--set technique.key=value` directives / config-file
   lines against it. Values round-trip through their string form, so a
   printed configuration can be fed back verbatim. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Time of Sim.Simtime.t
  | Enum of string
  | Opt_int of int option

type ty = TBool | TInt | TFloat | TTime | TEnum of string list | TOpt_int

type key = { name : string; ty : ty; default : value; doc : string }
type schema = key list

(* A resolved configuration: every schema key bound to a value. *)
type t = (string * value) list

let ty_to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TTime -> "time"
  | TEnum choices -> "enum(" ^ String.concat "|" choices ^ ")"
  | TOpt_int -> "int|none"

(* Virtual-time literals: 500us, 5ms, 1.5s; a bare integer means
   milliseconds (matching --crash/--recover event syntax). *)
let parse_time s =
  if Filename.check_suffix s "us" then
    Option.map Sim.Simtime.of_us
      (int_of_string_opt (Filename.chop_suffix s "us"))
  else if Filename.check_suffix s "ms" then
    Option.map Sim.Simtime.of_ms (int_of_string_opt (Filename.chop_suffix s "ms"))
  else if Filename.check_suffix s "s" then
    Option.map Sim.Simtime.of_sec
      (float_of_string_opt (Filename.chop_suffix s "s"))
  else Option.map Sim.Simtime.of_ms (int_of_string_opt s)

let time_to_string t =
  let us = Sim.Simtime.to_us t in
  if us mod 1000 = 0 then string_of_int (us / 1000) ^ "ms"
  else string_of_int us ^ "us"

let value_to_string = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Time t -> time_to_string t
  | Enum s -> s
  | Opt_int None -> "none"
  | Opt_int (Some i) -> string_of_int i

let parse_value ty s =
  let s = String.trim s in
  match ty with
  | TBool -> (
      match bool_of_string_opt s with
      | Some b -> Ok (Bool b)
      | None -> Error (Printf.sprintf "expected true or false, got %S" s))
  | TInt -> (
      match int_of_string_opt s with
      | Some i -> Ok (Int i)
      | None -> Error (Printf.sprintf "expected an integer, got %S" s))
  | TFloat -> (
      match float_of_string_opt s with
      | Some f -> Ok (Float f)
      | None -> Error (Printf.sprintf "expected a number, got %S" s))
  | TTime -> (
      match parse_time s with
      | Some t -> Ok (Time t)
      | None ->
          Error
            (Printf.sprintf "expected a time (e.g. 500us, 5ms, 1.5s), got %S" s))
  | TEnum choices ->
      if List.mem s choices then Ok (Enum s)
      else
        Error
          (Printf.sprintf "expected one of %s, got %S"
             (String.concat ", " choices)
             s)
  | TOpt_int -> (
      if String.equal s "none" then Ok (Opt_int None)
      else
        match int_of_string_opt s with
        | Some i -> Ok (Opt_int (Some i))
        | None -> Error (Printf.sprintf "expected an integer or none, got %S" s))

let find_key schema name =
  List.find_opt (fun k -> String.equal k.name name) schema

let keys schema = List.map (fun k -> k.name) schema

let defaults schema = List.map (fun k -> (k.name, k.default)) schema

(* The range a value must fall in, or [None] when it does. Times are
   never negative. The one float key is a probability; the int keys
   count replicas or groups. *)
let out_of_range v =
  match v with
  | Time t -> if Sim.Simtime.(t >= zero) then None else Some ">= 0"
  | Float f -> if f >= 0. && f <= 1. then None else Some "in [0, 1]"
  | Int i | Opt_int (Some i) -> if i >= 1 then None else Some ">= 1"
  | Bool _ | Enum _ | Opt_int None -> None

(* Unknown keys must name the alternatives: a typo in a sweep script
   should fail loudly with the fix in the message. *)
let set schema t ~key ~value =
  match find_key schema key with
  | None ->
      Error
        (Printf.sprintf "unknown config key %S (valid keys: %s)" key
           (String.concat ", " (keys schema)))
  | Some k -> (
      match parse_value k.ty value with
      | Error msg -> Error (Printf.sprintf "key %S: %s" key msg)
      | Ok v -> (
          match out_of_range v with
          | Some range ->
              Error
                (Printf.sprintf "key %S: expected a value %s, got %S" key
                   range (String.trim value))
          | None ->
              Ok
                (List.map
                   (fun (n, old) -> if n = key then (n, v) else (n, old))
                   t)))

let apply schema pairs =
  List.fold_left
    (fun acc (key, value) ->
      match acc with Error _ as e -> e | Ok t -> set schema t ~key ~value)
    (Ok (defaults schema))
    pairs

(* Typed accessors. A miss is a programming error (each technique's
   [create] reads exactly the keys its schema declares), so these
   raise. *)

let get name t =
  match List.assoc_opt name t with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Config.get: unbound key %S" name)

let get_bool t name =
  match get name t with
  | Bool b -> b
  | _ -> invalid_arg (Printf.sprintf "Config.get_bool: %S is not a bool" name)

let get_int t name =
  match get name t with
  | Int i -> i
  | _ -> invalid_arg (Printf.sprintf "Config.get_int: %S is not an int" name)

let get_float t name =
  match get name t with
  | Float f -> f
  | _ -> invalid_arg (Printf.sprintf "Config.get_float: %S is not a float" name)

let get_time t name =
  match get name t with
  | Time v -> v
  | _ -> invalid_arg (Printf.sprintf "Config.get_time: %S is not a time" name)

let get_enum t name =
  match get name t with
  | Enum s -> s
  | _ -> invalid_arg (Printf.sprintf "Config.get_enum: %S is not an enum" name)

let get_opt_int t name =
  match get name t with
  | Opt_int v -> v
  | _ ->
      invalid_arg (Printf.sprintf "Config.get_opt_int: %S is not an int|none" name)

let abcast_impl_of_enum = function
  | "consensus" -> Group.Abcast.Consensus_based
  | _ -> Group.Abcast.Sequencer

let abcast_impl_key =
  {
    name = "abcast_impl";
    ty = TEnum [ "sequencer"; "consensus" ];
    default = Enum "sequencer";
    doc =
      "atomic-broadcast engine: fixed sequencer (latency-optimal, accurate \
       detection) or consensus-based (tolerates wrong suspicions)";
  }

let batch_window_key =
  {
    name = "batch_window";
    ty = TTime;
    default = Time Sim.Simtime.zero;
    doc =
      "sequencer batching: coalesce requests injected within this virtual-time \
       window into one ordering round (0 = order each request immediately)";
  }

let shards_key =
  {
    name = "shards";
    ty = TInt;
    default = Int 1;
    doc =
      "partition the keyspace into this many replication groups, each running \
       its own instance of the technique over a disjoint replica subset; \
       cross-shard transactions commit via 2PC across the concerned groups \
       (1 = full replication, byte-identical to the unsharded protocol)";
  }

let to_strings t = List.map (fun (n, v) -> (n, value_to_string v)) t

(* ---- `--set technique.key=value` directives ------------------------- *)

type directive = { technique : string; key : string; value : string }

let parse_directive s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "expected TECHNIQUE.KEY=VALUE, got %S" s)
  | Some eq -> (
      let path = String.trim (String.sub s 0 eq) in
      let value =
        String.trim (String.sub s (eq + 1) (String.length s - eq - 1))
      in
      match String.index_opt path '.' with
      | None ->
          Error
            (Printf.sprintf
               "expected TECHNIQUE.KEY=VALUE (no '.' in %S); e.g. \
                active.batch_window=5ms"
               path)
      | Some dot ->
          let technique = String.sub path 0 dot in
          let key = String.sub path (dot + 1) (String.length path - dot - 1) in
          if technique = "" || key = "" then
            Error (Printf.sprintf "empty technique or key in %S" s)
          else Ok { technique; key; value })

let directive_to_string d =
  Printf.sprintf "%s.%s=%s" d.technique d.key d.value

(* Config files are one directive per line — `technique.key=value` —
   with '#' comments and blank lines ignored. *)
let parse_file path =
  match
    let ic = open_in path in
    let rec lines acc =
      match input_line ic with
      | line -> lines (line :: acc)
      | exception End_of_file ->
          close_in ic;
          List.rev acc
    in
    lines []
  with
  | exception Sys_error e -> Error e
  | raw ->
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            let line =
              match String.index_opt line '#' with
              | Some i -> String.sub line 0 i
              | None -> line
            in
            let line = String.trim line in
            if line = "" then go (n + 1) acc rest
            else
              match parse_directive line with
              | Ok d -> go (n + 1) (d :: acc) rest
              | Error msg -> Error (Printf.sprintf "%s:%d: %s" path n msg))
      in
      go 1 [] raw

let pairs_for ~technique directives =
  List.filter_map
    (fun d ->
      if String.equal d.technique technique then Some (d.key, d.value) else None)
    directives
