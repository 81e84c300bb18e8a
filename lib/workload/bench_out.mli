(** Machine-readable bench results.

    Each perf* experiment accumulates (metric, technique, params, value)
    rows and writes [BENCH_<name>.json]:

    {v
    {"type":"bench","version":"1.1.0","bench":"perf1","seed":11,
     "n_replicas":3,
     "results":[{"metric":"latency_mean","technique":"active",
                 "unit":"ms","params":{"n":"3"},"value":4.2}, ...]}
    v} *)

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

(** {2 Parsing}

    {!Sim.Json}'s value type and parser, re-exported under the names the
    repository benchmark ([benchmark/replibench.ml]) uses. *)

type json = Sim.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
