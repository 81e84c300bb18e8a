(** Structured spans: named intervals of simulated time, grouped per trace
    (transaction), linked parent/child and attributed to a track (a replica,
    or the client when [None]).

    The collector is append-only during a run; exporters and analyses read
    the finished spans afterwards (see {!Trace_export}). Span ids are dense
    and index an array, and each trace keeps its own span list, so every
    query costs what it returns: the cost of each operation is stated
    below. *)

type id = int

type event = { at : Simtime.t; track : int option; note : string }

type span = {
  id : id;
  trace : int;  (** transaction/request id *)
  name : string;  (** e.g. a {!Core.Phase} code: "RE", "SC", ... *)
  parent : id option;
  track : int option;  (** replica attribution; [None] = client *)
  start : Simtime.t;
  mutable stop : Simtime.t option;  (** [None] while the span is open *)
  mutable rev_events : event list;
}

type t

val create : unit -> t

(** Open a span. Returns its id for later {!finish}/{!add_event}. Ids
    are dense: 0, 1, 2, ... in start order. O(1) amortised. *)
val start_span :
  t -> trace:int -> ?parent:id -> ?track:int -> name:string -> Simtime.t -> id

(** Attach a point event (e.g. a per-replica phase mark) to an open or
    closed span. Unknown ids are ignored. O(1). *)
val add_event : t -> id -> at:Simtime.t -> ?track:int -> string -> unit

(** Close a span. Closing an already-closed span extends its stop time
    monotonically (used for transaction roots whose lazy-propagation tail
    outlives the client response). O(1). *)
val finish : t -> id -> Simtime.t -> unit

(** O(1). *)
val find : t -> id -> span option

(** Number of spans ever recorded (deterministic for a given seed). O(1). *)
val count : t -> int

(** All spans in start (= id) order. O(all spans). *)
val spans : t -> span list

(** Events of a span in recording order. *)
val events : span -> event list

(** Spans of [trace] in start order. O(spans in the trace). *)
val trace_spans : t -> trace:int -> span list

(** Spans never finished — orphans, unless the run is still in flight.
    O(all spans). *)
val open_spans : t -> span list

(** Close every open span at [stop] (flush before exporting). O(all
    spans). *)
val finish_all : t -> Simtime.t -> unit

(** Distinct trace ids in first-seen order. O(traces). *)
val traces : t -> int list

val duration_ms : span -> float option

(** Every span of [trace] is closed, has an existing parent in the same
    trace (roots excepted) and fits inside its parent's interval.
    O(spans in the trace). *)
val well_nested : t -> trace:int -> bool

val pp_span : Format.formatter -> span -> unit
