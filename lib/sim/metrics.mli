(** A small in-process registry of labelled integer counters, keyed by
    metric name plus a label set (e.g.
    [("replica", "0"); ("protocol", "active")]). Labels are order
    insensitive. A counter is created by its first {!incr}. *)

type t

val create : unit -> t

(** [incr t name] adds [by] (default 1) to a counter. *)
val incr : t -> ?labels:(string * string) list -> ?by:int -> string -> unit

(** [counter t name] — the counter's current value; 0 when it was never
    incremented. *)
val counter : t -> ?labels:(string * string) list -> string -> int

(** {2 Snapshots} *)

type sample = { metric : string; labels : (string * string) list; value : int }

type snapshot = sample list

(** Point-in-time copy of every counter, sorted by name then labels. *)
val snapshot : t -> snapshot

(** The counter's value in a snapshot; [None] when it is absent. *)
val counter_value : snapshot -> ?labels:(string * string) list -> string -> int option

val pp_sample : Format.formatter -> sample -> unit
val pp_snapshot : Format.formatter -> snapshot -> unit

(** One JSON array of samples (no external JSON dependency). *)
val snapshot_to_json : snapshot -> string

val json_escape : string -> string

(** Compact float rendering for JSON: integer-valued floats print as
    ["N.0"], others as [%.6g]. *)
val json_float : float -> string
