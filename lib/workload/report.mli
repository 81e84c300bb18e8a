(** CSV export of experiment results, for plotting the performance-study
    figures outside the harness. *)

(** Tool version stamped into machine-readable exports. *)
val version : string

(** A configuration's (key, value) strings as one JSON object. *)
val config_json : (string * string) list -> Sim.Json.t

(** The common JSONL header record ([{"type":"header",...}]) every
    machine-readable export opens with. [extra] appends members after
    the fixed ones; [config] (when non-empty) is
    rendered as a ["config"] object of key/value strings naming the
    exact technique configuration that produced the export. *)
val header_json :
  ?extra:(string * Sim.Json.t) list ->
  ?config:(string * string) list ->
  seed:int -> technique:string -> n_replicas:int -> unit -> string

(** Quote a field RFC 4180-style when it contains a comma, double quote
    or newline (inner quotes doubled). *)
val csv_escape : string -> string

(** Header row matching {!csv_row}. *)
val csv_header : string

(** One result as a CSV row. [label] identifies the configuration (e.g.
    "active,n=3,upd=0.5") and is quoted as needed. *)
val csv_row : label:string -> Runner.result -> string

(** Print header + rows to a formatter. *)
val to_csv : Format.formatter -> (string * Runner.result) list -> unit

(** One-line engine summary ("N events in S s wall (R events/s)") for
    the human-facing run report; sub-millisecond wall times report "n/a"
    instead of a nonsense rate. Never part of machine-readable
    (byte-deterministic) exports. *)
val engine_summary : Runner.result -> string

(** {2 Per-phase latency table}

    One row per paper phase the technique entered, derived from the
    span recorder ({!Runner.result.phase_ms}). *)

val phases_to_csv : Format.formatter -> (string * Runner.result) list -> unit
