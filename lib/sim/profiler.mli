(** Engine self-profiling: per-label wall-time and allocation attribution
    for the simulator's own hot path, plus the meta-counters that price
    the observability stack itself.

    Attach one to an engine ({!Engine.set_profiler}) and every scheduled
    action the engine dispatches is stamped ([Unix.gettimeofday] and
    {!allocated_words} deltas) and accumulated into the bucket named by the
    label its scheduler supplied ("net:deliver", "client:arrival",
    "rchan:retransmit", ...).

    Everything wall-clock-derived is non-deterministic by nature; the
    deterministic counters (events executed, timers scheduled/cancelled,
    queue peak — owned by {!Engine}) are copied into the {!report} so a
    single record describes the run. {!normalize} zeroes the
    non-deterministic fields for byte-determinism comparisons. *)

type t

val create : unit -> t

(** A wall-clock + allocation snapshot opening a measured region. *)
type mark

val mark : unit -> mark

(** Close a region opened by {!mark}, accumulating its wall time and
    allocated words into [label]'s bucket. *)
val attribute : t -> label:string -> mark -> unit

(** [measure t ~label f] runs [f] with its cost attributed to [label]
    (exception-safe). Used for off-loop work worth pricing, e.g. trace
    export. *)
val measure : t -> label:string -> (unit -> 'a) -> 'a

(** Net words allocated by this process so far: minor + major −
    promoted, with the minor words from [Gc.minor_words], exact at any
    point, rather than from [Gc.counters], which counts them only at a
    minor collection. *)
val allocated_words : unit -> float

(** {2 Run bookkeeping (filled in by the driver)} *)

(** Copy the engine's deterministic counters into the profiler. *)
val set_engine_stats :
  t -> events:int -> scheduled:int -> cancelled:int -> queue_peak:int -> unit

(** Add wall seconds spent inside the run loop (drives events/s). *)
val add_run_wall : t -> float -> unit

(** Observability meta-counters: spans recorded and timeseries samples
    taken during the run. *)
val set_meta : t -> ?spans_created:int -> ?samples_taken:int -> unit -> unit

(** Count exported trace bytes (call next to the export). *)
val add_trace_bytes : t -> int -> unit

(** {2 Report} *)

type row = {
  r_label : string;
  r_events : int;
  r_wall_ms : float;
  r_wall_share : float;  (** of summed bucket self time; 0 when none *)
  r_alloc_w : float;
  r_alloc_share : float;
}

type report = {
  p_events : int;  (** engine events executed (deterministic) *)
  p_scheduled : int;  (** timers scheduled (deterministic) *)
  p_cancelled : int;  (** cancelled timers discarded (deterministic) *)
  p_queue_peak : int;  (** event-queue high-water depth (deterministic) *)
  p_wall_s : float;  (** wall time inside the run loop *)
  p_events_per_sec : float;  (** 0 when no measurable wall time *)
  p_self_wall_s : float;  (** sum of bucket self times *)
  p_alloc_words : float;  (** words allocated inside profiled events *)
  p_heap_peak_words : int;
      (** max major-heap words observed at event boundaries *)
  p_spans_created : int;
  p_samples_taken : int;
  p_trace_bytes : int;
  p_buckets : row list;  (** first-seen (deterministic) order *)
}

val report : t -> report

(** One-line JSON. [extra] members (technique, seed, etc.) follow
    ["type"]. Bucket [wall_share]s sum to ~1.0 whenever any self time
    was measured, and [alloc_share]s likewise. *)
val report_to_json : ?extra:(string * Json.t) list -> report -> string

(** The report with every wall-clock- or environment-derived field
    (wall times, events/s, allocation words and shares, heap peak, trace
    bytes) set to 0, so same-seed reports compare equal. *)
val normalize : report -> report

val pp_row : Format.formatter -> row -> unit
val pp_report : Format.formatter -> report -> unit
