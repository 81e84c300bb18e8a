(** Lazy primary copy replication (paper §4.5, §5.3).

    Updates execute and commit at the primary, which answers the client
    {e before} any coordination; the changes propagate to the secondaries
    afterwards (FIFO), where they are simply applied — ordering needs no
    further care because the primary already serialised everything.
    Read-only transactions run at the client's local replica and may
    observe stale data: this is the weak-consistency half of Figure 16
    (END before AC). Because transactions commit at the primary only,
    copies can be stale but never conflicting, and no reconciliation is
    needed.

    Settings ({!schema}): [propagation_delay] is how long the primary
    batches changes before propagating — 0 propagates immediately;
    larger values model periodic refresh. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set lazy-primary.KEY=VALUE]. *)
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
