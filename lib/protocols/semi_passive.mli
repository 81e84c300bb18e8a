(** Semi-passive replication (paper §3.5, [DSS98]).

    A primary-backup-style technique that needs no view-synchronous
    membership: requests go to all servers, and for each sequence slot the
    current coordinator of a consensus instance executes the oldest pending
    request — only then materialising its proposal (the "deferred initial
    value") — and proposes the resulting update. Whatever update the
    consensus decides is applied by all replicas, which then all answer
    the client. A crashed coordinator merely rotates the consensus
    coordinator: aggressive failure-detection timeouts cost extra rounds,
    never incorrect processing, so failures stay transparent to clients.

    The paper notes SC and AC collapse into the single consensus here; the
    observed phase signature is RE EX AC END. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set semi-passive.KEY=VALUE]. *)
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
