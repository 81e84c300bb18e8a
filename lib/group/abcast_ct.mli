(** Atomic broadcast built on Chandra–Toueg consensus (the transformation of
    [HT93], which the paper cites for ABCAST): pending messages are agreed
    upon in numbered batches; batch [k] is delivered, in a deterministic
    order, once consensus instance [k] decides.

    Tolerates [f < n/2] member crashes and message loss, including crashes
    of the member that initiated a broadcast. Clients listed in [clients]
    may inject broadcasts without being members (paper §4.4.2: the client
    sends to one server which forwards to all — here the forwarding is the
    stubborn multicast of the injection). *)

type t
type group

val create_group :
  Sim.Network.t ->
  members:int list ->
  ?clients:int list ->
  ?fd:Fd.group ->
  unit ->
  group

val handle : group -> me:int -> t

(** Broadcast from a member. *)
val broadcast : t -> Sim.Msg.t -> unit

(** Broadcast from a non-member client declared in [clients]. *)
val broadcast_from : group -> src:int -> Sim.Msg.t -> unit

(** Total-order delivery callback ([origin] is the injecting node). *)
val on_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Optimistic delivery in spontaneous receipt order (see
    {!Abcast_seq.on_opt_deliver}). *)
val on_opt_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Ids (origin, per-origin seq) delivered so far, oldest first (tests). *)
val delivered : t -> (int * int) list

(** Ids optimistically delivered so far, in spontaneous order. *)
val opt_delivered : t -> (int * int) list
