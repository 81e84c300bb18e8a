(** Passive replication — primary-backup (paper §3.3, [GS97]).

    Clients send requests to the primary, which executes them (possibly
    non-deterministically) and propagates the resulting update to the
    backups with a View Synchronous Broadcast; it replies once the update
    is stable. On a primary crash the group installs a new view, the next
    member becomes primary, and clients re-send after a timeout —
    duplicate resubmissions are absorbed by a per-request result cache, so
    each request takes effect exactly once.

    A replica that crash-recovers re-enters through the membership
    protocol (it must not trust its pre-crash view or state): it discards
    tentative writes that never reached the group and rebuilds from
    {!Common}'s state transfer ([Sync_state]) — pushed by survivors that
    see it rejoin a view, and pulled by the joiner ([Sync_req]) when
    membership alone cannot reveal the rejoin. Until the transfer
    arrives it claims no primaryship. Figure 16 row: RE EX AC END. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set passive.KEY=VALUE]. *)
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
