(** Stubborn point-to-point channels: retransmit until acknowledged,
    deduplicate on delivery.

    All higher group-communication layers send through these channels so
    that message loss never violates their guarantees. On a network whose
    links are declared loss-free ({!Sim.Network.passthrough}) a channel
    skips acks and retransmission, which keeps message counts equal to the
    protocol-level pattern (used by the benches that reproduce the paper's
    message diagrams).

    A message addressed to the sender's own node never touches the
    network: a zero-delay engine event delivers it, once, and only while
    the node is up (a crash first drops it). It has no [Data] wrapper,
    seq, retransmit entry, ack or loss draw, the network does not count
    it, and [on_settled] never reports it.

    Messages are numbered per link, so a receiver deduplicates with a
    per-origin high-water mark and the set of seqs below it not arrived
    yet: its memory is O(gaps), the messages still being reordered or
    retransmitted plus the holes a parked or crashed sender leaves until
    it resumes.

    A sender keeps one record per unacknowledged message, in a table
    keyed by link and seq and, while its retransmit chain runs, in its
    endpoint's retransmit ring. An endpoint (one node's handle on one
    group) arms a single engine timer, at the key of the ring's head:
    each send takes the scheduling seq a timer of its own would have
    taken ({!Sim.Engine.claim_seq}) and the timer is queued at that key
    ({!Sim.Engine.schedule_claimed}), so every retransmit fires exactly
    where a per-message timer would have. An ack costs a table removal,
    and a cancel and re-arm only when it acks the head.

    No channel gives up on a message. A link parks once a message has
    been retransmitted ten times (ten timeouts, the failure detector's
    default) while its endpoint heard nothing from the peer on any layer
    ({!Sim.Network.on_hear}), and every link parks when its node
    crashes. A parked link retransmits nothing: a new message goes out
    once, and the oldest is sent again as a probe at gaps that double
    from ten timeouts, seven times (the last 12.7 s after the park), so
    a peer that was only cut off is found after a heal even if nothing
    else talks to it. A dead peer costs eleven copies of the first
    message, one of each later one and the probes, and the run drains.
    A link resumes on any delivery from its peer (after the acks it
    carries are applied) and on its node's recovery: it sends every
    message it holds again, in seq order, each with a fresh chain.

    Acknowledgements. Every link follows one rule: a receiver owes its
    sender one cumulative ack, every seq below the contiguous prefix it
    holds plus each seq that arrived above an open hole since its last
    ack. The ack rides in the next [Data] the receiver sends to that
    peer. One timer per endpoint sends what is still owed as standalone
    [Ack]s half the group's retransmission timeout (5 ms at the default
    10 ms) after the endpoint went from owing nothing to owing
    something, so a link that carries data one way (lazy primary copy's
    refresh broadcast, a client's request channel) pays one [Ack] for
    all it delivers in that half timeout, and on the default network
    the ack is back before the first retransmit is due. *)

type t
type group

val create_group :
  Sim.Network.t ->
  nodes:int list ->
  ?rto:Sim.Simtime.t ->
  unit ->
  group

val handle : group -> me:int -> t
val send : t -> dst:int -> Sim.Msg.t -> unit
val mcast : t -> dsts:int list -> Sim.Msg.t -> unit

(** Delivery callback; each payload is delivered at most once per receiver. *)
val on_deliver : t -> (src:int -> Sim.Msg.t -> unit) -> unit

(** [on_settled t f] calls [f ~dst ~acked payload] once for each
    message [t] sends to another node, when it is acknowledged by [dst]
    (which then holds it; [acked] is true) or when its link parks towards
    [dst] as a silent peer ([acked] is false; the message is still sent
    again should the link resume, but a later ack reports nothing). A
    crash of [t]'s own node reports nothing. Nothing is reported on a
    passthrough network, and an endpoint with no callback pays nothing
    for the notification. *)
val on_settled : t -> (dst:int -> acked:bool -> Sim.Msg.t -> unit) -> unit

(** The retransmission timeout the endpoint's group was created with. *)
val rto : t -> Sim.Simtime.t

(** How long a link of a group with the default timeout keeps a timer
    once its peer falls silent for good: its retransmits until it parks,
    then its probes (12.81 s). *)
val quiet_after : Sim.Simtime.t
