(** Atomic broadcast facade over the two ordering engines.

    [Sequencer] is the latency-optimal engine, safe under accurate crash
    detection ({!Abcast_seq}); [Consensus_based] works with an
    eventually-accurate detector ({!Abcast_ct}). Both provide the same
    interface: total order, agreement, at-most-once delivery. *)

type impl = Sequencer | Consensus_based

type t
type group

(** [batch_window] (default 0): sequencer-side request batching — see
    {!Abcast_seq.create_group}. Ignored by the consensus engine, which
    already batches per instance. *)
val create_group :
  Sim.Network.t ->
  members:int list ->
  ?clients:int list ->
  ?impl:impl ->
  ?fd:Fd.group ->
  ?batch_window:Sim.Simtime.t ->
  unit ->
  group

val handle : group -> me:int -> t
val broadcast : t -> Sim.Msg.t -> unit
val broadcast_from : group -> src:int -> Sim.Msg.t -> unit
val on_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Optimistic delivery in spontaneous receipt order, before the total
    order is fixed ([KPAS99a]; see {!Abcast_seq.on_opt_deliver}). *)
val on_opt_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Delivered ids (origin, per-origin seq), oldest first. *)
val delivered : t -> (int * int) list

(** Optimistically delivered ids, in spontaneous order. *)
val opt_delivered : t -> (int * int) list
