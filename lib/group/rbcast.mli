(** FIFO reliable broadcast (paper §3.1).

    Guarantees {e validity} (a correct sender's message is delivered),
    {e agreement} (if any correct member delivers a message, all correct
    members do), {e integrity} (at-most-once delivery) and {e FIFO
    order} (if a member broadcasts [m] before [m'], no member delivers
    [m'] before [m]). Each origin numbers its broadcasts; a member
    delivers them in that order and keeps one that arrives early until
    the ones before it have been delivered.

    The origin sends its n−1 copies over stubborn channels ({!Rchan}),
    which never give up on a copy. Agreement then needs help only when
    the origin crashes for good before every copy got through, and
    members relay on suspicion of that, not on every delivery:

    - {e Stability.} A copy is settled once it is acked, or once its
      link parks towards a silent member ({!Rchan.on_settled}); a
      broadcast is stable once all its copies are. Every packet carries
      the origin's watermark: each of its seqs below it is stable. An
      origin that goes idle for two channel timeouts sends one short
      stability notice instead.
    - {e Held messages.} Each member holds the messages it received
      above their origin's watermark, and drops them as the watermark
      passes them.
    - {e Suspicion.} A member runs one timer per origin, and only while
      it holds messages from that origin. An origin that sent the
      member anything in the last ten channel timeouts is up, and its
      own chains still carry what it has not settled. A message held
      that long from an origin silent that long may be stranded by a
      crash: the member relays it to the others and stops holding it,
      leaving it to the relay's own chains. A wrong suspicion costs
      messages, never correctness.
    - {e Recovery.} An origin's crash settles nothing, and its channel
      resends what the crash cut off once it recovers, so a watermark
      never covers a copy that is still missing.

    On a passthrough network ({!Sim.Network.passthrough}) the channel
    sends all copies in one event and loses nothing, so the origin's
    n−1 copies suffice: no watermark, holding, timer, notice or
    relay. *)

type t
type group

val create_group :
  Sim.Network.t ->
  members:int list ->
  ?rto:Sim.Simtime.t ->
  unit ->
  group

val handle : group -> me:int -> t

(** Broadcast to the whole group, including the sender itself. *)
val broadcast : t -> Sim.Msg.t -> unit

val on_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** {2 Bookkeeping, for tests and gauges} *)

(** Messages [t] holds: received from some origin, not yet covered by
    its watermark and not relayed. *)
val held : t -> int

(** [t]'s own broadcasts that are not stable yet. *)
val unstable : t -> int

(** Messages [t] has relayed on suspicion. *)
val relayed : t -> int

(** Messages [t] has received but not delivered yet: each waits for an
    earlier one from its origin. *)
val early : t -> int
