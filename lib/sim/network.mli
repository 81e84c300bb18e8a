(** Simulated message-passing network.

    Endpoints (replicas {e and} clients) are integers [0 .. n-1]. Each
    point-to-point message is delayed by the configured latency model, may be
    dropped, and is discarded if the destination is crashed or partitioned
    away at delivery time. Delivery runs the destination's handler stack:
    handlers are tried from the most recently added until one returns
    [true].

    When a {!Span} collector is installed ({!set_msg_spans}) and the sender
    runs under an {!Engine.ctx}, every send opens a message span (named
    ["msg:" ^ Msg.name]) parented to the causing span, closed at delivery or
    drop time; handlers run under the delivered message's span, so the whole
    causal message DAG of a transaction is recorded without protocol
    changes (see {!Msg_dag}). *)

type latency =
  | Constant of Simtime.t
  | Uniform of Simtime.t * Simtime.t  (** inclusive bounds *)
  | Exponential of { floor : Simtime.t; mean : Simtime.t }
      (** [floor] + Exp([mean]) — a common WAN model *)

type config = {
  latency : latency;
  drop_probability : float;  (** per point-to-point message, in [0,1] *)
  passthrough : bool;
      (** the links are declared loss-free: the reliable channels built
          on this network ([Group.Rchan]) send each message once, with
          no ack and no retransmission, so wire traffic equals the
          protocol's own message pattern (the benches that reproduce the
          paper's message diagrams). Messages that are dropped anyway
          stay lost. Default [false]. *)
}

val default_config : config

(** Why a message was dropped: probabilistic in-flight loss, a crashed
    destination, or a partition (at send or delivery time). *)
type drop_cause = Loss | Crashed | Partitioned

(** A handler returns [true] when it consumed the message. *)
type handler = src:int -> Msg.t -> bool

type t

val create : Engine.t -> n:int -> config -> t
val engine : t -> Engine.t
val size : t -> int
val rng : t -> Rng.t

(** The [passthrough] the network was created with. *)
val passthrough : t -> bool

(** {2 Per-run ids}

    The network owns the two id counters of a run, so a run's ids depend
    only on what was built on its own network, never on earlier runs in
    the same process. Both start at 0 and hand out 1, 2, 3, ... *)

(** [fresh_id t] — a new instance id: the tag an instance that installs
    handlers directly on the network (a reliable-channel group, a failure
    detector, a protocol context's reply path) stamps on its messages so
    that its handlers consume only their own. Layers above a channel own
    that channel and need no tag. Ids never reach the schedule. *)
val fresh_id : t -> int

(** [fresh_rid t] — a new request (transaction) id, as carried by
    [Store.Operation.request]. Kept apart from {!fresh_id} so that the
    n-th request of a run is always rid n: rids show up in traces and
    span exports. *)
val fresh_rid : t -> int

(** Install the span collector message spans are recorded into (usually
    the transaction-trace collector, {!Core.Phase_span.collector}, so
    message spans and phase spans share one id space). A message span is
    closed in the collector installed when the message lands, so install
    it before traffic flows, as instance construction does. *)
val set_msg_spans : t -> Span.t -> unit

(** Message-span names built so far: each distinct message kind's
    ["msg:" ^ Msg.name] is built once per network (see {!Msg.interned}),
    however many messages of that kind are sent. *)
val span_names_built : t -> int

(** Master tracing switch (default on). When off, message spans are not
    materialised and protocol instrumentation built on the network
    ({!Core.Phase_span} via [Protocols.Common])
    skips its recording work. Spans never influence the event schedule,
    so the switch is behaviour-preserving: same seed, same results. *)
val set_tracing : t -> bool -> unit

val tracing : t -> bool

(** Install a {!Timeseries} sampler. The network registers its own
    gauges immediately ([net_in_flight] per endpoint, the
    [net_dropped_total] level); subsystems created afterwards discover
    the sampler via {!timeseries} and register theirs. *)
val set_timeseries : t -> Timeseries.t -> unit

val timeseries : t -> Timeseries.t option

(** [add_handler t node h] pushes [h] on top of [node]'s handler stack. *)
val add_handler : t -> int -> handler -> unit

val send : t -> src:int -> dst:int -> Msg.t -> unit

(** Crash-stop a node: it stops receiving messages and its guarded timers
    stop firing. In-flight messages to it are lost. *)
val crash : t -> int -> unit

val recover : t -> int -> unit
val alive : t -> int -> bool

(** [on_crash t f] calls [f node] whenever [node] crash-stops. Protocols
    use this to expire state tied to a dead peer. *)
val on_crash : t -> (int -> unit) -> unit

(** [on_recover t f] calls [f node] whenever [node] comes back up —
    the hook a recovering replica uses to start its own rejoin /
    state-transfer path (its timers were suppressed while it was down,
    so it cannot notice the outage by itself). *)
val on_recover : t -> (int -> unit) -> unit

(** [guard t node f] wraps [f] so it only runs while [node] is alive —
    use for protocol timers. *)
val guard : t -> int -> (unit -> unit) -> unit -> unit

(** [set_link_latency t a b model] overrides the latency model for both
    directions of the (a, b) link — e.g. to model a WAN between sites
    while other links stay LAN-fast. *)
val set_link_latency : t -> int -> int -> latency -> unit

(** Remove all per-link overrides. *)
val clear_link_latencies : t -> unit

(** [partition t group] drops all messages between [group] and its
    complement until [heal]. *)
val partition : t -> int list -> unit

val heal : t -> unit
val set_drop_probability : t -> float -> unit

(** Current per-message drop probability — read it before a temporary
    [set_drop_probability] override (a loss window in a fault-injection
    scenario) so the baseline can be restored afterwards. *)
val drop_probability : t -> float

(** Counters since creation or the last [reset_counters]. *)

val messages_sent : t -> int
val messages_delivered : t -> int

(** Total drops (= loss + crashed + partitioned). *)
val messages_dropped : t -> int

val dropped_loss : t -> int
val dropped_crashed : t -> int
val dropped_partitioned : t -> int
val reset_counters : t -> unit
