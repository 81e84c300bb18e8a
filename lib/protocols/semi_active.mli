(** Semi-active replication (paper §3.4, Delta-4 [PCD91]).

    Requests are atomically broadcast as in active replication and executed
    by every replica in delivery order, but replicas need not be
    deterministic: whenever execution reaches a non-deterministic choice,
    the leader decides and sends its choice to the followers with a View
    Synchronous Broadcast; followers apply the leader's choice instead of
    making their own. Figure 16 row: RE SC EX AC END (the EX/AC pair
    repeats per non-deterministic choice; deterministic requests skip
    AC). *)

type config = {
  abcast_impl : Group.Abcast.impl;
  passthrough : bool;
  batch_window : Sim.Simtime.t;
      (** sequencer-side request batching window (0 = off) *)
}

val default_config : config
val schema : Config.schema
val config_of : Config.t -> config

val create :
  Sim.Network.t ->
  replicas:int list ->
  clients:int list ->
  ?config:config ->
  ?shared:Common.shared ->
  unit ->
  Core.Technique.instance

val info : Core.Technique.info
