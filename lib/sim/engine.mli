(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of scheduled
    actions. Actions scheduled for the same instant run in scheduling order,
    which (together with {!Rng}) makes whole simulations deterministic.

    The queue is a binary min-heap on (time, scheduling sequence number),
    kept in parallel int arrays beside the timer records. Cancelling a
    timer only marks it; marked timers are dropped when they reach the
    head, or all at once when they make up most of a large queue
    (compaction). Neither changes the order in which live timers run. *)

type t

(** Cancellable handle on a scheduled action. *)
type timer

val create : ?seed:int -> unit -> t

val now : t -> Simtime.t

(** The engine's root random generator (see {!Rng.split} to derive
    independent streams for subsystems). *)
val rng : t -> Rng.t

(** Ambient causal context: the transaction ([trace]) and span on whose
    behalf the currently running action executes. {!schedule} captures it
    into the timer and {!step} reinstalls it around the action, so the
    context follows the causal chain through asynchrony without any
    protocol code threading it explicitly. {!Network} overrides it during
    message delivery with the delivered message's span. *)
type ctx = { trace : int; span : int }

(** Context of the currently running action ([None] outside any trace —
    e.g. maintenance timers armed at setup time). *)
val ctx : t -> ctx option

val set_ctx : t -> ctx option -> unit

(** [schedule t ~after f] runs [f] at [now t + after]. [label] names the
    profiling bucket the action's self time is attributed to (default
    ["timer"]); it has no effect on scheduling. *)
val schedule : t -> ?label:string -> after:Simtime.t -> (unit -> unit) -> timer

(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)
val schedule_at :
  t -> ?label:string -> at:Simtime.t -> (unit -> unit) -> timer

(** [periodic t ~every f] runs [f] every [every] until cancelled. *)
val periodic : t -> ?label:string -> every:Simtime.t -> (unit -> unit) -> timer

val cancel : timer -> unit

(** Number of scheduled (uncancelled) events. O(1): maintained as a live
    counter on schedule/cancel/dispatch rather than a queue scan. *)
val pending : t -> int

(** O(n) reference implementation of {!pending} (a full queue scan); the
    counter is tested to match it. *)
val pending_scan : t -> int

(** Execute the next event. Returns [false] when the queue is empty. *)
val step : t -> bool

(** [run t] drains the event queue, stopping early when [until] (virtual
    time) or [max_events] is reached. Returns the number of events run. *)
val run : ?until:Simtime.t -> ?max_events:int -> t -> int

(** {2 Profiling}

    When a profiler is attached, {!step} wraps every dispatched action
    with a wall-clock/allocation stamp attributed to its schedule label.
    Without one, dispatch takes the unstamped path (no extra cost beyond
    the deterministic counters below). *)

val set_profiler : t -> Profiler.t option -> unit
val profiler : t -> Profiler.t option

(** {2 Deterministic event-loop statistics}

    Maintained unconditionally (a few int ops per event); exactly
    reproducible across same-seed runs. *)

(** Actions actually executed by {!step}/{!run}. *)
val events_executed : t -> int

(** Timers ever scheduled ({!schedule}/{!schedule_at}, incl. periodic
    re-arms). *)
val timers_scheduled : t -> int

(** Cancelled timers discarded so far, at the queue head or by
    compaction (an undercount of cancellations until the queue drains). *)
val timers_cancelled : t -> int

(** High-water mark of the timer-queue depth. The depth includes
    cancelled timers not yet dropped, so compaction can lower it. *)
val queue_peak : t -> int
