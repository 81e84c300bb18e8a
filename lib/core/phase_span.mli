(** Per-request phase recording.

    Every protocol implementation marks the start of each functional-model
    phase as it processes a request; this is the one recorder of those
    marks. It turns them into a well-nested {!Sim.Span} tree — one root
    span ("txn") per request with one child span per {!Phase} occurrence.
    Consecutive marks of the same phase (e.g. EX on every replica) fold
    into the open span as point events; a mark of a different phase closes
    the open span and opens the next one; a {!Phase.Response} mark records
    the instant END span and closes the root. Marks arriving after
    Response (the lazy-propagation tail) open further children and stretch
    the root, so traces remain well nested.

    Figures 1–4 and 7–16 of the paper are regenerated from the flat mark
    view ({!marks}) derived from the tree, and the tests check each
    technique's observed phase sequence against the paper's synthetic
    view (Figure 16). *)

type t

(** [create ?on_phase_close ()] — the callback fires whenever a phase span
    closes, with its replica attribution and duration in milliseconds
    (used to feed per-phase latency histograms in {!Sim.Metrics}). *)
val create :
  ?on_phase_close:(phase:Phase.t -> replica:int option -> float -> unit) ->
  unit ->
  t

(** The underlying span collection, for exporters ({!Sim.Trace_export}). *)
val collector : t -> Sim.Span.t

val mark :
  t -> rid:int -> ?replica:int -> ?note:string -> Phase.t -> Sim.Simtime.t -> unit

(** Close every span still open (flush at end of run / quiescence). *)
val finalize : t -> at:Sim.Simtime.t -> unit

(** Transaction ids in first-seen order. *)
val rids : t -> int list

(** The Response span has been recorded for [rid]. *)
val responded : t -> rid:int -> bool

(** Phase spans of [rid] in start order. *)
val phase_spans : t -> rid:int -> (Phase.t * Sim.Span.span) list

(** First-occurrence phase order — the transaction's Figure-16 row. *)
val signature : t -> rid:int -> Phase.t list

(** [(phase, duration_ms)] per closed phase span, in start order. *)
val durations : t -> rid:int -> (Phase.t * float) list

(** Every closed phase span's duration in milliseconds, grouped by phase
    across all transactions, recorded as each span closes. Canonical
    phase order; phases with no closed span are absent. After
    {!finalize} this is exactly {!durations} gathered over {!rids}. *)
val samples : t -> (Phase.t * float list) list

(** {2 Flat mark view} *)

type mark = {
  phase : Phase.t;
  replica : int option;  (** None when it is a client-side event *)
  time : Sim.Simtime.t;
  note : string;
}

(** All marks of a request, in recording order, derived from its phase
    spans: each span yields its opening mark, then one mark per event it
    absorbed. The opening mark carries the note of the span's first event
    when that event is non-empty and sits at the span's start on the
    span's track (that is where {!mark} files an opening note). *)
val marks : t -> rid:int -> mark list

(** The request's phase sequence: phases ordered by first occurrence.
    A second occurrence after a different phase (the §5 per-operation
    loops) appears again. Consecutive duplicates are collapsed. *)
val sequence : t -> rid:int -> Phase.t list

val pp_marks : Format.formatter -> mark list -> unit

(** Well-nestedness of the {e phase} spans of [rid]: every phase span is
    closed, a child of the root, and fits inside the root's interval.
    Message spans sharing the collector are ignored — causal chains
    overlap by construction. *)
val well_nested : t -> rid:int -> bool

(** The id of [rid]'s root ("txn") span, once the first mark created it.
    Sends performed under this context (see {!Sim.Engine.ctx}) parent
    their message spans to the transaction root. *)
val root : t -> rid:int -> Sim.Span.id option
