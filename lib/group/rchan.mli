(** Stubborn point-to-point channels: retransmit until acknowledged,
    deduplicate on delivery.

    All higher group-communication layers send through these channels so
    that message loss never violates their guarantees. When the run is known
    to be loss-free, [passthrough:true] skips acks and retransmission, which
    keeps message counts equal to the protocol-level pattern (used by the
    benches that reproduce the paper's message diagrams).

    Messages are numbered per link: each sender counts 0, 1, 2, ... towards
    each destination separately, so a receiver sees every sequence number
    of a link (unless the message is lost for good). A receiver therefore
    deduplicates with a per-origin high-water mark (one more than the
    highest seq delivered) and the set of seqs below it that have not
    arrived yet, instead of remembering every message it delivered. Its
    memory is O(gaps): messages still being reordered or retransmitted, plus
    the permanent holes a crashed sender leaves when its retransmit chains
    die. A sender keeps one small record per unacknowledged message. *)

type t
type group

val create_group :
  Sim.Network.t ->
  nodes:int list ->
  ?rto:Sim.Simtime.t ->
  ?max_retries:int ->
  ?passthrough:bool ->
  unit ->
  group

val handle : group -> me:int -> t
val send : t -> dst:int -> Sim.Msg.t -> unit
val mcast : t -> dsts:int list -> Sim.Msg.t -> unit

(** Delivery callback; each payload is delivered at most once per receiver. *)
val on_deliver : t -> (src:int -> Sim.Msg.t -> unit) -> unit
