(* Labelled integer counters, keyed by metric name plus a label set
   sorted by label name (so label order never matters). *)

type key = { name : string; labels : (string * string) list }

type t = { table : (key, int ref) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

(* A list of at most one label is already sorted; [List.sort] would
   still allocate its closures on every call. *)
let normalize_labels = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels = { name; labels = normalize_labels labels }

let incr t ?(labels = []) ?(by = 1) name =
  let k = key name labels in
  match Hashtbl.find_opt t.table k with
  | Some c -> c := !c + by
  | None -> Hashtbl.replace t.table k (ref by)

let counter t ?(labels = []) name =
  match Hashtbl.find_opt t.table (key name labels) with
  | Some c -> !c
  | None -> 0

(* Snapshots -------------------------------------------------------- *)

type sample = { metric : string; labels : (string * string) list; value : int }

type snapshot = sample list

let snapshot t =
  Hashtbl.fold
    (fun k c acc -> { metric = k.name; labels = k.labels; value = !c } :: acc)
    t.table []
  |> List.sort (fun a b ->
         match String.compare a.metric b.metric with
         | 0 -> compare a.labels b.labels
         | c -> c)

let counter_value snap ?(labels = []) name =
  let labels = normalize_labels labels in
  List.find_map
    (fun s -> if s.metric = name && s.labels = labels then Some s.value else None)
    snap

(* Rendering -------------------------------------------------------- *)

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let pp_sample ppf s =
  Format.fprintf ppf "%-48s %d" (s.metric ^ labels_to_string s.labels) s.value

let pp_snapshot ppf snap =
  List.iter (fun s -> Format.fprintf ppf "%a@." pp_sample s) snap

(* Most strings need no escaping; those are returned as they are, so the
   exporters' hot path builds no copy. *)
let rec needs_escape s i =
  i < String.length s
  &&
  match s.[i] with
  | '"' | '\\' -> true
  | c -> Char.code c < 0x20 || needs_escape s (i + 1)

let json_escape s =
  if not (needs_escape s 0) then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let sample_to_json s =
  let labels =
    s.labels
    |> List.map (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
    |> String.concat ","
  in
  Printf.sprintf "{\"metric\":\"%s\",\"labels\":{%s},\"type\":\"counter\",\"value\":%d}"
    (json_escape s.metric) labels s.value

let snapshot_to_json snap =
  "[" ^ String.concat "," (List.map sample_to_json snap) ^ "]"
