(** Chandra–Toueg ◇S consensus with a rotating coordinator.

    Solves a sequence of independently-numbered consensus instances among a
    fixed member set, tolerating [f < n/2] crashes, using the {!Fd} failure
    detector for liveness and {!Rchan} stubborn channels for lossy links.

    Guarantees per instance: {e agreement} (no two members decide
    differently), {e validity} (the decision is some member's proposal) and
    {e termination} (every correct member eventually decides, provided a
    majority is correct and the detector is eventually accurate).

    The module is a functor so that each instantiation gets its own private
    message constructors and its own value type (message batches for atomic
    broadcast, view descriptors for view-synchronous membership, ...). *)

module Make (V : sig
  type t
end) : sig
  type t
  type group

  val create_group :
    Sim.Network.t ->
    members:int list ->
    fd:Fd.group ->
    ?rto:Sim.Simtime.t ->
    unit ->
    group

  val handle : group -> me:int -> t

  (** [propose t ~instance v]: contribute [v] as this member's initial value
      for [instance]. At most the first proposal per member counts. *)
  val propose : t -> instance:int -> V.t -> unit

  (** [participate t ~instance]: join [instance] without contributing a
      value (the member's estimate stays ⊥ until it either adopts a
      coordinator proposal or proposes itself later). Needed by
      deferred-initial-value usages (semi-passive replication, paper
      §3.5) where only the coordinator materialises a value but a
      majority must still take part in every round. *)
  val participate : t -> instance:int -> unit

  (** [on_decide t f] calls [f ~instance v] exactly once per decided
      instance. Register before proposing. *)
  val on_decide : t -> (instance:int -> V.t -> unit) -> unit

  (** The decision of [instance], if this member has learned it. *)
  val decision : t -> instance:int -> V.t option
end
