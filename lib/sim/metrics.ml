(* HDR-style histogram: exponential buckets covering ~1us .. ~50s when
   values are in milliseconds. bound.(i) is the inclusive upper edge of
   bucket i; the last bucket catches everything above. *)

let n_buckets = 64

let bucket_bounds =
  lazy
    (Array.init n_buckets (fun i -> 0.001 *. (1.5 ** float_of_int i)))

let bucket_of value =
  let bounds = Lazy.force bucket_bounds in
  let rec go i =
    if i >= n_buckets - 1 then n_buckets - 1
    else if value <= bounds.(i) then i
    else go (i + 1)
  in
  go 0

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  buckets : int array;
}

type kind =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of histogram

type key = { name : string; labels : (string * string) list }

type t = { table : (key, kind) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let key name labels = { name; labels = normalize_labels labels }

let get_or_add t k mk =
  match Hashtbl.find_opt t.table k with
  | Some kind -> kind
  | None ->
      let kind = mk () in
      Hashtbl.replace t.table k kind;
      kind

let incr t ?(labels = []) ?(by = 1) name =
  match get_or_add t (key name labels) (fun () -> Counter { c = 0 }) with
  | Counter c -> c.c <- c.c + by
  | _ -> invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")

let set_gauge t ?(labels = []) name v =
  match get_or_add t (key name labels) (fun () -> Gauge { g = 0. }) with
  | Gauge g -> g.g <- v
  | _ -> invalid_arg ("Metrics.set_gauge: " ^ name ^ " is not a gauge")

let fresh_histogram () =
  {
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let observe t ?(labels = []) name v =
  match get_or_add t (key name labels) (fun () -> Histogram (fresh_histogram ())) with
  | Histogram h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = h.buckets in
      b.(bucket_of v) <- b.(bucket_of v) + 1
  | _ -> invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")

(* Snapshots -------------------------------------------------------- *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  bucket_counts : int array;
}

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_snapshot

type sample = { metric : string; labels : (string * string) list; value : value }

type snapshot = sample list

let snapshot t =
  Hashtbl.fold
    (fun k kind acc ->
      let value =
        match kind with
        | Counter c -> Counter_v c.c
        | Gauge g -> Gauge_v g.g
        | Histogram h ->
            Histogram_v
              {
                count = h.h_count;
                sum = h.h_sum;
                min = h.h_min;
                max = h.h_max;
                bucket_counts = Array.copy h.buckets;
              }
      in
      { metric = k.name; labels = k.labels; value } :: acc)
    t.table []
  |> List.sort (fun a b ->
         match String.compare a.metric b.metric with
         | 0 -> compare a.labels b.labels
         | c -> c)

let find snap ?(labels = []) name =
  let labels = normalize_labels labels in
  List.find_opt (fun s -> s.metric = name && s.labels = labels) snap

let counter_value snap ?labels name =
  match find snap ?labels name with Some { value = Counter_v c; _ } -> Some c | _ -> None

let gauge_value snap ?labels name =
  match find snap ?labels name with Some { value = Gauge_v g; _ } -> Some g | _ -> None

let histogram_value snap ?labels name =
  match find snap ?labels name with
  | Some { value = Histogram_v h; _ } -> Some h
  | _ -> None

(* [diff ~before ~after] subtracts monotone parts (counters, histogram
   counts/sums/buckets); gauges and histogram min/max keep the [after]
   value since they cannot be meaningfully subtracted. *)
let diff ~before ~after =
  List.filter_map
    (fun a ->
      let b = find before ~labels:a.labels a.metric in
      match (a.value, Option.map (fun s -> s.value) b) with
      | Counter_v av, Some (Counter_v bv) ->
          let d = av - bv in
          if d = 0 then None else Some { a with value = Counter_v d }
      | Histogram_v ah, Some (Histogram_v bh) ->
          let count = ah.count - bh.count in
          if count = 0 then None
          else
            Some
              {
                a with
                value =
                  Histogram_v
                    {
                      count;
                      sum = ah.sum -. bh.sum;
                      min = ah.min;
                      max = ah.max;
                      bucket_counts =
                        Array.init n_buckets (fun i ->
                            ah.bucket_counts.(i) - bh.bucket_counts.(i));
                    };
              }
      | _, None -> Some a
      | _, Some _ -> Some a)
    after

let quantile (h : hist_snapshot) q =
  if h.count = 0 then 0.
  else begin
    let bounds = Lazy.force bucket_bounds in
    let rank = int_of_float (ceil (q *. float_of_int h.count)) in
    let rank = Stdlib.max 1 (Stdlib.min h.count rank) in
    let result = ref h.max in
    let cum = ref 0 in
    (try
       for i = 0 to n_buckets - 1 do
         cum := !cum + h.bucket_counts.(i);
         if !cum >= rank then begin
           result := bounds.(i);
           raise Exit
         end
       done
     with Exit -> ());
    Stdlib.max h.min (Stdlib.min h.max !result)
  end

let mean (h : hist_snapshot) =
  if h.count = 0 then 0. else h.sum /. float_of_int h.count

(* Histogram snapshots render through the shared summary record so the
   quantile set (and the count=0 sentinel) matches the runner's
   latency summaries. *)
let hist_summary (h : hist_snapshot) =
  if h.count = 0 then Summary.empty
  else
    {
      Summary.count = h.count;
      mean = mean h;
      p50 = quantile h 0.5;
      p90 = quantile h 0.9;
      p95 = quantile h 0.95;
      p99 = quantile h 0.99;
      min = h.min;
      max = h.max;
    }

(* Rendering -------------------------------------------------------- *)

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let pp_sample ppf s =
  let name = s.metric ^ labels_to_string s.labels in
  match s.value with
  | Counter_v c -> Format.fprintf ppf "%-48s %d" name c
  | Gauge_v g -> Format.fprintf ppf "%-48s %g" name g
  | Histogram_v h ->
      let s = hist_summary h in
      Format.fprintf ppf
        "%-48s count=%d mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f"
        name s.Summary.count s.Summary.mean s.Summary.p50 s.Summary.p90
        s.Summary.p95 s.Summary.p99 s.Summary.max

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
  let value =
    match s.value with
    | Counter_v c -> Printf.sprintf "\"type\":\"counter\",\"value\":%d" c
    | Gauge_v g -> Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (json_float g)
    | Histogram_v h ->
        let s = hist_summary h in
        Printf.sprintf
          "\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p95\":%s,\"p99\":%s"
          s.Summary.count (json_float h.sum)
          (json_float s.Summary.min) (json_float s.Summary.max)
          (json_float s.Summary.p50) (json_float s.Summary.p90)
          (json_float s.Summary.p95) (json_float s.Summary.p99)
  in
  Printf.sprintf "{\"metric\":\"%s\",\"labels\":{%s},%s}" (json_escape s.metric)
    labels value

let snapshot_to_json snap =
  "[" ^ String.concat "," (List.map sample_to_json snap) ^ "]"
