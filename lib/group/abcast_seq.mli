(** Uniform atomic broadcast with a fixed sequencer and epoch-based
    failover (a ZooKeeper-atomic-broadcast-style design).

    The current leader (the [epoch mod n]-th member) assigns a global
    sequence number to each injected message and sends the [Order] to
    the other members; each of them acknowledges the assignment to every
    member but itself, and a member delivers a sequence slot only once
    every trusted member has acknowledged it ({e uniform} delivery). A
    member records its own ack when it takes a slot, and the leader's
    [Order] counts as the leader's ack, so no message is addressed to
    its sender: a slot costs n-1 Orders and (n-1)^2 acks. Each ack, the
    [Order] included, carries its sender's delivery cursor, and every
    member keeps the highest cursor heard from each peer. On leader crash the next member
    re-announces, under a higher epoch, the assignments some member may
    still lack: from the lowest cursor it has heard (every member has
    delivered the slots below it, with the same ids) up to its highest
    slot, and at least that one, so the new epoch spreads. It plugs the
    holes it cannot account for with no-ops and continues numbering. A
    takeover therefore costs what the members lack, not the run's length.

    Crashes keep a member's state, so recovery is catch-up: a member back
    from a crash has its channels resend what they held ({!Rchan}), a
    member that trusts a peer again re-acks to it what that peer may
    lack, and an ack from a member that has delivered the slot teaches
    the assignment to one that missed its Order. The leader re-announces
    a slot some trusted member has not acked, once its Order went out at
    least one channel timeout ago (anti-entropy, for a member that
    dropped its Order for a newer epoch). A member that moves to a new
    epoch on its own suspicion tells
    the new leader, whose detector may never fire on a short crash, and a
    leader that regains its quorum orders what it received without one.

    Failover is safe under {e accurate} crash detection (the synchronous
    model of paper §2.1); with wrong suspicions the consensus-based engine
    ({!Abcast_ct}) must be used instead. This engine exists because it is
    the latency-optimal common case (2 message delays) and serves as the
    ablation baseline against consensus-based ordering.

    With a non-zero [batch_window], the leader coalesces every message
    injected within that virtual-time window into a single ordering round
    (one sequence slot holding the whole batch): the Orders and their
    stability acks are paid once per batch instead of once
    per message — the sequencer-side mirror of {!Abcast_ct}'s
    per-instance batches. [batch_window = 0] (the default) orders each
    message immediately, preserving the latency-optimal §5 behaviour.

    Bookkeeping. Each member keeps one window of cells indexed by
    sequence number, grown by doubling. A cell holds the slot's
    assignment (its ids and epoch) and one ack set per assignment heard
    for that slot; an ack set is a bitset over member positions, one bit
    per member in as many words as the group needs, with a count of its
    bits, so an [Order] or [Order_ack] costs array reads and stability is
    a count unless a member is suspected. The id tables that are never
    iterated (payloads, fetches, slot counts, delivered ids) hash ids
    arithmetically; the pending table, which takeover and epoch adoption
    iterate, keeps [Hashtbl.hash] and with it its iteration order. Heard
    cursors live in an array indexed by member position. Nothing is
    truncated: the window and tables grow with the run. *)

type t
type group

val create_group :
  Sim.Network.t ->
  members:int list ->
  ?clients:int list ->
  ?fd:Fd.group ->
  ?batch_window:Sim.Simtime.t ->
  unit ->
  group

val handle : group -> me:int -> t
val broadcast : t -> Sim.Msg.t -> unit
val broadcast_from : group -> src:int -> Sim.Msg.t -> unit
val on_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Optimistic delivery (the optimistic atomic broadcast of [KPAS99a],
    which the paper's introduction credits with hiding group-communication
    overheads behind transaction execution): fires as soon as a message is
    {e received}, in the spontaneous network order, before its place in
    the total order is fixed. Consumers may start processing
    optimistically and must confirm or repair when [on_deliver] later
    fixes the definitive order. *)
val on_opt_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Ids (origin, per-origin seq) delivered so far, oldest first (tests). *)
val delivered : t -> (int * int) list

(** Ids optimistically delivered so far, in spontaneous order. *)
val opt_delivered : t -> (int * int) list

(** Current leader from this member's point of view (tests). *)
val leader : t -> int
