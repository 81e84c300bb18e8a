(** The canonical run record: one finished run distilled into a single
    versioned, byte-deterministic JSON document.

    Every observability signal the repo measures feeds this one schema:
    throughput and percentile latency from the {!Runner}, msgs/txn plus
    the single-transaction causal census from {!Sim.Msg_dag}, drop
    counters, saturation findings over the sampled series, the
    consistency-audit staleness summary and the engine's deterministic
    event counter. Sweeps ([replisim sweep]) write one record per cell,
    baselines are committed directories of records, and the comparison
    engine ([replisim compare], {!Compare}) diffs record sets — so the
    record is the unit of cross-run observability.

    A record has two halves. The identity half — technique, config,
    seed, cluster shape and workload — is the typed record {!t}. The
    measured half is declared once, as an ordered table in
    [run_record.ml]: each entry gives the flat metric name, the JSON
    location (e.g. [perf.latency_ms.p95] or [router.retries]), the kind
    (int, float or bool), which {!direction} is better and how to read
    it from the {!Runner.result} and the optional census. The census,
    audit and router sections are present exactly when their source is.
    {!of_run}, {!to_json}, {!of_string}, {!metrics}, {!metric_names},
    {!direction} and {!normalize} are folds over that table, and measured
    values are read only through the flat metric view.

    To add a metric, add one table entry and bump {!schema_version}.

    After {!normalize} (which zeroes the one wall-clock entry, the only
    one with no metric name) a same-seed re-run renders byte-identically
    via {!to_json}. *)

(** Bumped on any field change; {!of_string} refuses other versions so a
    stale baseline fails loudly instead of comparing garbage. *)
val schema_version : int

type workload = {
  keys : int;
  zipf : float;  (** zipfian key-popularity skew theta; 0 = uniform *)
  updates : float;
  ops : int;
  txns_per_client : int;
  shards : int;
  cross : float;
  arrival : string;  (** ["closed"] or ["poisson:<rate>"] *)
  shape : string;  (** ["mixed"] or ["tpcb"] *)
  flash : string option;
      (** rendered flash-crowd phase ({!Spec.flash_crowd_to_string}),
          when the workload declared one *)
}

(** Which way a metric improves. *)
type direction = Lower_better | Higher_better

(** The measured values, in table order; read them through {!metrics}
    and {!metric}. *)
type measured

type t = {
  technique : string;
  config : (string * string) list;  (** non-default settings, sorted *)
  seed : int;
  n_replicas : int;
  n_clients : int;
  workload : workload;
  measured : measured;
}

(** Distill a finished run. [config] is the resolved non-default
    technique configuration (see [Cli.config_pairs]); [census] the
    optional probe-measured (messages, steps) pair. *)
val of_run :
  technique:string ->
  config:(string * string) list ->
  seed:int ->
  n_replicas:int ->
  n_clients:int ->
  arrival:Runner.arrival ->
  spec:Spec.t ->
  ?census:int * int ->
  Runner.result ->
  t

(** Zero the wall-clock entry; normalized same-seed records render
    byte-identically. *)
val normalize : t -> t

val to_json : t -> string

(** Decode a record. A missing field, a field of the wrong kind or a
    fractional number in an integer field is an error naming the field
    by its JSON path. *)
val of_string : string -> (t, string) result

(** The record's cell identity — everything the experimenter chose
    (technique, config, workload, seed, cluster shape), nothing the run
    produced. Compare matches baseline and candidate records on it. *)
val cell_id : t -> string

(** Filesystem-safe file name derived from {!cell_id}. *)
val filename : t -> string

(** Write [filename t] into [dir] (default ["."]); returns the path. *)
val save : ?dir:string -> t -> string

(** {2 Flat metric view}

    The (name, value) view cross-run consumers work from: the sweep
    heatmap's [--cell] axis and the compare engine's rules both index
    records by these names. *)

val metrics : t -> (string * float) list
val metric : t -> string -> float option

(** Every name {!metrics} can emit, in table order (census/audit/router
    names appear only when those sections are present in the record). *)
val metric_names : string list

(** The better direction of a metric name; [None] for an unknown name. *)
val direction : string -> direction option
