(** Semi-active replication (paper §3.4, Delta-4 [PCD91]).

    Requests are atomically broadcast as in active replication and executed
    by every replica in delivery order, but replicas need not be
    deterministic: whenever execution reaches a non-deterministic choice,
    the leader decides and sends its choice to the followers with a View
    Synchronous Broadcast; followers apply the leader's choice instead of
    making their own. Figure 16 row: RE SC EX AC END (the EX/AC pair
    repeats per non-deterministic choice; deterministic requests skip
    AC). *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set semi-active.KEY=VALUE]. *)
val schema : Config.schema

(** Build an instance under a resolved configuration, every {!schema}
    key bound; {!Registry} is the only caller. *)
val create :
  ?shared:Common.shared ->
  Config.t ->
  Sim.Network.t ->
  replicas:int list ->
  clients:int list ->
  Core.Technique.instance

val info : Core.Technique.info
