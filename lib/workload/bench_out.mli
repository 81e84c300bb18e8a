(** Machine-readable bench results.

    Each perf* experiment accumulates (metric, technique, params, value)
    rows and writes [BENCH_<name>.json]:

    {v
    {"type":"bench","version":"1.1.0","bench":"perf1","seed":11,
     "n_replicas":3,
     "results":[{"metric":"latency_mean","technique":"active",
                 "unit":"ms","params":{"n":"3"},"value":4.2}, ...]}
    v}

    The schema checker used by [replisim bench-check] lives here too
    (with a minimal JSON parser — no external JSON dependency). *)

type t

(** [config] (default empty): non-default technique settings the bench
    ran under, echoed as a ["config"] object in the file header. *)
val create :
  ?config:(string * string) list ->
  bench:string -> seed:int -> n_replicas:int -> unit -> t

val add :
  t ->
  metric:string ->
  technique:string ->
  ?unit_:string ->
  ?params:(string * string) list ->
  float ->
  unit

val to_json : t -> string
val filename : t -> string

(** Write [BENCH_<bench>.json] into [dir] (default ["."]); returns the
    path. *)
val write : ?dir:string -> t -> string

(** {2 Validation} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result

(** Metrics a given bench's file must report (e.g. perf15 must carry
    [events_per_sec], [txns_per_sec] and [peak_heap_words]); empty for
    benches without extra requirements. Enforced by {!validate_json}. *)
val required_metrics : string -> string list

val validate_json : json -> (unit, string) result
val validate_file : string -> (unit, string) result

type bound = Floor | Ceiling

(** [check_bound doc bound ~metric ~limit] succeeds with the max value of
    [metric] across the result rows when it is at least ([Floor] — the
    CI throughput gate) or at most ([Ceiling] — how msgs/txn and
    staleness-window metrics are gated from above) [limit]. The failure
    message reports the observed value and its margin from the bound. *)
val check_bound :
  json -> bound -> metric:string -> limit:float -> (float, string) result
