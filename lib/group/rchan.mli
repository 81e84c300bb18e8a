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

    Messages are numbered per link: each sender counts 0, 1, 2, ... towards
    each destination separately, so a receiver sees every sequence number
    of a link (unless the message is lost for good). A receiver therefore
    deduplicates with a per-origin high-water mark (one more than the
    highest seq delivered) and the set of seqs below it that have not
    arrived yet, instead of remembering every message it delivered. Its
    memory is O(gaps): messages still being reordered or retransmitted, plus
    the permanent holes a crashed sender leaves when its retransmit chains
    die.

    A sender keeps one record per unacknowledged message (seven fields:
    the packet, its destination, the retries spent, the key its next
    retransmit fires at, the context it was sent under and an acked
    flag), one slot for it in a table keyed by link and seq and one in
    its endpoint's retransmit ring. An endpoint (one node's handle on
    one group) arms a single engine timer, at the key of the oldest
    message whose retransmit chain still runs. Each send takes the
    scheduling seq a timer of its own would have taken
    ({!Sim.Engine.claim_seq}), and the one timer is queued at that key
    ({!Sim.Engine.schedule_claimed}) when the message reaches the head
    of the ring, so every retransmit fires exactly where a per-message
    timer would have: same events, same order, same seeds. An ack
    costs a table removal, and a cancel and re-arm only when it acks
    the head; a retransmit moves its message to the tail under a fresh
    seq, and a chain that ends (sender crashed, retries spent) drops
    its message from the ring but leaves it unacknowledged.

    Acknowledgements. Every link follows one rule: a receiver owes its
    sender one cumulative ack, every seq below the contiguous prefix it
    holds plus each seq that arrived above an open hole since its last
    ack (a hole left by a chain that gave up never closes, and the seqs
    above it must still be acked). The ack rides in the next [Data] the
    receiver sends to that peer. One timer per endpoint sends what is
    still owed as standalone [Ack]s half the group's retransmission
    timeout (5 ms at the default 10 ms) after the endpoint went from
    owing nothing to owing something, so a link that carries data one
    way (lazy primary copy's refresh broadcast, a client's request
    channel) pays one [Ack] for all it delivers in that half timeout,
    and on the default network the ack is back before the first
    retransmit is due. The rule needs no setting, and nothing above the
    channel sees it. An endpoint keeps ack state for each link it
    uses. *)

type t
type group

val create_group :
  Sim.Network.t ->
  nodes:int list ->
  ?rto:Sim.Simtime.t ->
  ?max_retries:int ->
  unit ->
  group

val handle : group -> me:int -> t
val send : t -> dst:int -> Sim.Msg.t -> unit
val mcast : t -> dsts:int list -> Sim.Msg.t -> unit

(** Delivery callback; each payload is delivered at most once per receiver. *)
val on_deliver : t -> (src:int -> Sim.Msg.t -> unit) -> unit

(** [on_settled t f] calls [f ~dst ~acked payload] once for each
    message [t] sends whose retransmit chain ends: acknowledged by [dst]
    (which then holds it; [acked] is true), or its retries spent while
    [t]'s node is up ([acked] is false: the channel gave up on [dst]).
    A chain that ends because the sender crashed is reported only if its
    ack arrives later. Nothing is reported on a passthrough network, and
    an endpoint with no callback pays nothing for the notification. *)
val on_settled : t -> (dst:int -> acked:bool -> Sim.Msg.t -> unit) -> unit

(** The retransmission timeout the endpoint's group was created with. *)
val rto : t -> Sim.Simtime.t
