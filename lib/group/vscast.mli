(** View Synchronous Broadcast (paper §3.1, [SS93]).

    Messages are broadcast within a view [vi(g)] and delivered only when
    every current-view member has acknowledged them (sender-FIFO order).
    When a member is suspected, the survivors agree — through
    {!Consensus} — on the next view and on the exact set of view-[i]
    messages to deliver before installing it. Because a message is
    delivered only when acknowledged by all members, any message delivered
    by {e anyone} in view [i] is in {e every} proposer's flush set, which
    yields the view-synchrony property: if some process delivers [m] in
    [vi(g)] before installing [v(i+1)(g)], every process that installs
    [v(i+1)(g)] first delivers [m].

    Messages of view [i] not in the agreed flush set are dropped
    everywhere; the sender (if it survives into the new view)
    automatically rebroadcasts them in the new view.

    A member that crash-recovers must not resume its pre-crash view:
    messages may have been delivered — and views installed — without it
    while it was down, so on recovery it marks itself excluded and
    re-enters through {!request_join} like any left-behind member. This
    holds even when it recovers before the failure detector excluded it:
    a join request from a current member forces a fresh view (with
    unchanged membership) for the joiner to jump to. *)

type t
type group

val create_group :
  Sim.Network.t ->
  members:int list ->
  ?fd:Fd.group ->
  unit ->
  group

val handle : group -> me:int -> t

(** Broadcast to the current view. No-op for members excluded from it. *)
val broadcast : t -> Sim.Msg.t -> unit

val on_deliver : t -> (origin:int -> Sim.Msg.t -> unit) -> unit

(** Called after each new view is installed. *)
val on_view_change : t -> (View.t -> unit) -> unit

val current_view : t -> View.t

(** Whether this member is part of its current view (false once excluded). *)
val in_view : t -> bool

(** [request_join t] asks the group to readmit an excluded (e.g. crashed
    and recovered) member. The next view change includes it; because it
    cannot replay the views it missed, it {e jumps} to the readmitting
    view, and the application must transfer state (see the hot-standby
    recovery in the Passive protocol). Repeated automatically until a
    view containing the member is installed. *)
val request_join : t -> unit
