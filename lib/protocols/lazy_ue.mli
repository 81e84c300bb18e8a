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

(** The technique's settings: key, type, default and doc, resolved by
    [--set lazy-ue.KEY=VALUE]. *)
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

(** Conflicts detected during reconciliation, summed over replicas (the
    instance's [reconciliation_conflicts_total] counters) — divided by
    the replica count this is the number of conflicting transaction pairs
    observed. *)
val conflicts : Core.Technique.instance -> int

val info : Core.Technique.info
