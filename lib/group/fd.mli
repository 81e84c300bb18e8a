(** Demand-driven failure detector.

    A layer waits on a peer ({!wait}) while it holds work only that peer
    can finish (order, acknowledge, decide), and stops when the work is
    done. Every message delivered from a peer, on any layer, counts as
    hearing from it ({!Sim.Network.on_hear}). A waited-on peer silent for
    [heartbeat_every] (default 20 ms) is pinged, and a live peer answers;
    one silent for [timeout] (default 100 ms, from the last message heard
    or the wait's start, whichever is later) is suspected, and with it
    every waited-on peer silent nearly as long. Hearing from a suspect
    revokes the suspicion. A peer nobody waits on costs no event.

    Contract: Chandra–Toueg ◇S for waited-on peers. A crashed peer that
    stays waited on is eventually suspected for ever (strong
    completeness); a correct one is eventually trusted for ever once the
    links deliver again (eventual accuracy). Elsewhere a peer keeps the
    standing it had, which is all the layers need: they consult the
    detector only about peers their pending work waits on. *)

type t
type group

val create_group :
  Sim.Network.t ->
  members:int list ->
  ?heartbeat_every:Sim.Simtime.t ->
  ?timeout:Sim.Simtime.t ->
  unit ->
  group

(** The handle of member [me]. Raises [Not_found] for non-members. *)
val handle : group -> me:int -> t

val me : t -> int
val members : t -> int list
val suspected : t -> int -> bool

(** Members not currently suspected (always includes [me]). *)
val trusted : t -> int list

(** [on_suspect t f] calls [f peer] whenever [peer] becomes suspected. *)
val on_suspect : t -> (int -> unit) -> unit

(** [on_trust t f] calls [f peer] when a suspicion is revoked. *)
val on_trust : t -> (int -> unit) -> unit

(** One layer's waits on [t]'s peers, opened and closed by {!wait}. A
    peer is waited on while some waiter of its handle waits on it. *)
type waiter

val waiter : t -> waiter

(** [wait w peers] makes [w] wait on exactly [peers] (members other than
    the handle's own node; others are ignored); [wait w []] closes every
    wait of [w]. Repeating the list [w] already holds changes nothing. *)
val wait : waiter -> int list -> unit

(** [poller t ~label ~every ~busy ~waits f] is the
    {!Sim.Network.poller} of [t]'s node, with a waiter of its own that
    waits on [waits ()] whenever [busy ()] holds and on nobody
    otherwise. *)
val poller :
  t ->
  label:string ->
  every:Sim.Simtime.t ->
  busy:(unit -> bool) ->
  waits:(unit -> int list) ->
  (unit -> unit) ->
  unit ->
  unit
