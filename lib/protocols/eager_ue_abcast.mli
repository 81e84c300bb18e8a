(** Eager update everywhere based on atomic broadcast (paper §4.4.2,
    [SR96, KA98, KPAS99a]).

    The client submits to its local server, which forwards the whole
    transaction through an ABCAST (the SC phase — note the contrast with
    active replication, where the {e client} broadcasts). Every replica
    executes transactions in delivery order; conflicting operations are
    thereby ordered identically everywhere and no agreement coordination is
    needed. The delegate alone answers the client. Figure 16 row:
    RE SC EX END. *)

type config = {
  abcast_impl : Group.Abcast.impl;
  client_retry : Sim.Simtime.t;
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
