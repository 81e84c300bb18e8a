(* Tool version, stamped into every machine-readable export. *)
let version = "1.2.0"

(* Every JSONL export (run, campaign, metrics, explain, timeline) opens
   with this header record so a file is self-describing: which tool
   version, seed, cluster shape — and, when any technique parameter was
   set, exactly which configuration — produced it. [config] is a list of
   (key, value) strings, e.g. the resolved technique configuration or
   the applied --set directives. *)
let config_json kvs = Sim.Json.Obj (List.map (fun (k, v) -> (k, Sim.Json.Str v)) kvs)

let header_json ?(extra = []) ?(config = []) ~seed ~technique ~n_replicas () =
  let config = if config = [] then [] else [ ("config", config_json config) ] in
  Sim.Json.(
    to_string
      (Obj
         ([ ("type", Str "header"); ("version", Str version); ("seed", Int seed);
            ("technique", Str technique); ("n_replicas", Int n_replicas) ]
         @ config @ extra)))

(* RFC 4180-style quoting: labels like "active,n=3,upd=0.5" must not
   break the column count, so any field containing a comma, quote or
   newline is wrapped in double quotes with inner quotes doubled. *)
let csv_escape field =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') field
  then begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else field

let csv_header =
  "label,committed,aborted,unanswered,throughput_tps,lat_mean_ms,lat_p50_ms,\
   lat_p90_ms,lat_p95_ms,lat_p99_ms,lat_max_ms,upd_lat_mean_ms,\
   read_lat_mean_ms,makespan_ms,messages,messages_per_txn,\
   max_response_gap_ms,converged,serializable"

let csv_row ~label (r : Runner.result) =
  Printf.sprintf
    "%s,%d,%d,%d,%.2f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.2f,%d,%.2f,%.2f,%b,%b"
    (csv_escape label) r.committed r.aborted r.unanswered r.throughput
    r.latency_ms.Sim.Summary.mean r.latency_ms.Sim.Summary.p50 r.latency_ms.Sim.Summary.p90
    r.latency_ms.Sim.Summary.p95 r.latency_ms.Sim.Summary.p99 r.latency_ms.Sim.Summary.max
    r.update_latency_ms.Sim.Summary.mean r.read_latency_ms.Sim.Summary.mean
    (Sim.Simtime.to_ms r.makespan)
    r.messages r.messages_per_txn
    (Sim.Simtime.to_ms r.max_response_gap)
    r.converged r.serializable

(* One-line wall-clock summary for `replisim run`. Sub-millisecond runs
   have no meaningful rate at gettimeofday resolution — report "n/a"
   rather than divide by (near-)zero. Wall time is deliberately absent
   from the CSV/JSONL exports, which must stay byte-deterministic. *)
let engine_summary (r : Runner.result) =
  if r.wall_s > 0.000_5 then
    Printf.sprintf "%d events in %.3f s wall (%.0f events/s)" r.events r.wall_s
      (float_of_int r.events /. r.wall_s)
  else Printf.sprintf "%d events (wall n/a)" r.events

let to_csv ppf rows =
  Format.fprintf ppf "%s@." csv_header;
  List.iter
    (fun (label, result) -> Format.fprintf ppf "%s@." (csv_row ~label result))
    rows

let phase_csv_header =
  "label,phase,count,mean_ms,p50_ms,p90_ms,p95_ms,p99_ms,max_ms"

let phase_csv_rows ~label (r : Runner.result) =
  List.map
    (fun (phase, (s : Sim.Summary.t)) ->
      Printf.sprintf "%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f" (csv_escape label)
        (Core.Phase.code phase) s.Sim.Summary.count s.Sim.Summary.mean s.Sim.Summary.p50
        s.Sim.Summary.p90 s.Sim.Summary.p95 s.Sim.Summary.p99 s.Sim.Summary.max)
    r.phase_ms

let phases_to_csv ppf rows =
  Format.fprintf ppf "%s@." phase_csv_header;
  List.iter
    (fun (label, result) ->
      List.iter
        (fun row -> Format.fprintf ppf "%s@." row)
        (phase_csv_rows ~label result))
    rows
