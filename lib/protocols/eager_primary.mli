(** Eager primary copy replication (paper §4.3 single-operation, §5.2
    multi-operation) — the hot-standby backup scheme of distributed INGRES
    lineage.

    Updates execute at the primary, which ships the resulting log records
    to the secondaries (FIFO change propagation) and then runs a 2PC round
    so all copies commit atomically before the client sees the commit
    notification. Read-only transactions run at the client's local replica
    and see the latest committed version. On primary failure, clients
    re-submit to the next replica after a timeout (the take-over that the
    paper attributes to operator intervention); a per-request outcome
    cache makes resubmission exactly-once.

    In [interactive] mode (Figure 12), each operation's changes are
    propagated as the transaction progresses (an EX/AC loop per
    operation) and only the final AC is a 2PC; otherwise the transaction
    is a stored procedure: one EX, one propagation, one 2PC (Figure 7).

    Settings ({!schema}): [nonblocking_commit] uses three-phase commit
    for the final agreement round instead of the (blocking) two-phase
    commit — the §2.1 distributed-systems alternative. One more message
    round; a coordinator crash can no longer wedge prepared participants
    (see abl8). [abort_probability] is the chance that a secondary votes
    NO, standing in for the paper's "load, consistency constraints,
    interactions with local operations" — deterministic per (request,
    replica). *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set eager-primary.KEY=VALUE]. *)
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
