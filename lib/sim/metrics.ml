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

let sample_to_json s =
  Json.(
    Obj
      [ ("metric", Str s.metric); ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) s.labels));
        ("type", Str "counter"); ("value", Int s.value) ])

let snapshot_to_json snap = Json.(to_string (Arr (List.map sample_to_json snap)))
