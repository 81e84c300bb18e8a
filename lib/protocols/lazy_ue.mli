(** Lazy update everywhere replication (paper §4.6).

    Any replica accepts updates, executes and commits them locally, and
    answers the client immediately; the writeset propagates afterwards.
    Concurrent commits at different sites can conflict — the copies become
    "not only stale but inconsistent" — so the AC phase is a
    reconciliation: writesets are atomically broadcast and every replica
    applies them in the resulting {e after-commit order}
    ({!Core.Reconciliation}), which makes all copies converge; earlier
    conflicting transactions are the losers that "must be undone".
    Figure 16 row: RE EX END AC, weak consistency. *)

type config = {
  abcast_impl : Group.Abcast.impl;
  client_retry : Sim.Simtime.t;
  propagation_delay : Sim.Simtime.t;
  passthrough : bool;
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

(** Conflicts detected during reconciliation, summed over replicas (the
    instance's [reconciliation_conflicts_total] counters) — divided by
    the replica count this is the number of conflicting transaction pairs
    observed. *)
val conflicts : Core.Technique.instance -> int

val info : Core.Technique.info
