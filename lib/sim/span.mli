(** Structured spans: named intervals of simulated time, grouped per trace
    (transaction), linked parent/child and attributed to a track (a replica,
    or the client when [None]).

    The collector is append-only during a run; exporters and analyses read
    the finished spans afterwards (see {!Trace_export}). Span ids are dense
    and the store is a struct of arrays indexed by them: one growable [int]
    column per field ([-1] for an absent parent or track and for an open
    stop), a [string] column of names shared with the caller (message-span
    names are interned by {!Network}), and parallel event columns linked
    per span. Columns grow by fixed-size chunks, never by copying.

    Cost: recording a span stores no record, option or list cell; the
    caller's optional arguments box a few words that die young. A message
    span (start, two events, finish) keeps 17 words alive plus under one
    chunk of slack, against about 42 for a record per span and per event.
    The [span] and [event] records below are built on demand by the read
    functions, at the cost of the record and its events; the [*_of]
    accessors read one field without building anything. A collector that
    never records allocates no columns. Each trace links its own spans, so
    every query costs what it returns: the cost of each operation is
    stated below.

    Ids, tracks and times are non-negative (span ids, endpoint indices and
    simulated microseconds), which is what lets [-1] stand for "none". *)

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

(** Builds the span's record and its event list: a copy, so setting its
    mutable fields does not change the store. O(events of the span). *)
val find : t -> id -> span option

(** Number of spans ever recorded (deterministic for a given seed). O(1). *)
val count : t -> int

(** All spans in start (= id) order, built. O(all spans and events). *)
val spans : t -> span list

(** Events of a span in recording order. *)
val events : span -> event list

(** Spans of [trace] in start order, built. O(spans and events in the
    trace). *)
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

(** {2 Field reads by id}

    O(1) reads of one stored field, for code that runs during the loop or
    walks every span ({!Trace_export}, {!Msg_dag}): nothing is allocated.
    [id] must be below {!count}. Times are in microseconds; {!none} stands
    for an absent parent or track and for the stop of an open span. *)

val none : int
val name_of : t -> id -> string
val trace_of : t -> id -> int
val parent_of : t -> id -> int
val track_of : t -> id -> int
val start_of : t -> id -> int
val stop_of : t -> id -> int

(** Traces by slot: each trace's index in first-seen order, so the
    first span of the [k]-th trace to appear has slot [k]. [slot_of t id]
    is span [id]'s, [trace_of_slot] maps a slot back to its trace, and
    slots run from 0 to [trace_count t - 1]. O(1). *)
val slot_of : t -> id -> int

val trace_of_slot : t -> int -> int
val trace_count : t -> int

(** Ids of [trace]'s spans in start order. O(spans in the trace). *)
val trace_ids : t -> trace:int -> id list

(** A span's events as a cursor: [first_event t id] is its first event in
    recording order, [next_event t e] the one after [e]; both return
    {!none} past the end. *)
val first_event : t -> id -> int

val next_event : t -> int -> int
val event_at : t -> int -> int
val event_track : t -> int -> int
val event_note : t -> int -> string
