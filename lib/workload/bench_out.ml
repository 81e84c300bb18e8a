(* Machine-readable bench results: every perf* experiment accumulates
   (metric, technique, params, value) rows into one of these and writes
   BENCH_<name>.json next to the working directory. The minimal
   hand-rolled JSON parser (no external JSON dependency) lives here too:
   run records, the compare gate and replibench read through it. *)

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
    (String.concat "," (List.rev_map row_to_json t.rows_rev))

let filename t = "BENCH_" ^ t.bench ^ ".json"

let write ?(dir = ".") t =
  let path = Filename.concat dir (filename t) in
  let oc = open_out path in
  output_string oc (to_json t);
  output_char oc '\n';
  close_out oc;
  path

(* ---- JSON parsing ---------------------------------------------------- *)

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
