(** Sharded replication groups: partial replication over a partitioned
    keyspace.

    The wrapper splits the replica set into [shards] contiguous
    replication groups and runs one independent instance of the wrapped
    technique per group — its own sequencer / ABCAST stack / lock table,
    over that group's replicas only, holding only the keys its shard
    owns ({!Store.Shard_map}, hash placement). All groups report into
    one shared span collector, phase trace, metrics registry and
    history (a {!Common.shared} handed to each group's factory), so the
    run reads as a single system.

    Transactions are routed client-side (the wrapper plays the
    middleware router of Cecchet et al.):

    - {e Single-shard} transactions — all keys in one shard — are
      forwarded verbatim to the owning group's instance. No other group
      sees a message, so their cost is the technique's cost at the
      {e group} size, independent of total replica count.
    - {e Cross-shard} transactions first run a 2PC round
      ({!Core.Two_phase_commit}) between the submitting client
      (coordinator) and the {e delegate} — lowest replica — of each
      concerned group only; on Commit, the request is split into
      per-shard sub-transactions, one per concerned group, each
      executed by its group's technique instance under a fresh rid.
      Message cost therefore scales with shards {e touched}, never with
      cluster size. A delegate that is crashed or partitioned misses
      the prepare deadline and the round presumed-aborts, so the client
      always learns an outcome.

    Known limitation (documented in PROTOCOLS.md): the prepare vote is
    about availability, not conflicts — a technique that can abort
    unilaterally (certification) may abort one sub-transaction after
    the cross-group commit, yielding a partial commit. The
    [cross_shard_partial_total] counter exposes exactly this.

    With [shards = 1] the {!Registry} does not interpose this wrapper
    at all, so the run is byte-identical to the unsharded protocol by
    construction. *)

(** [partition ~shards replicas] — contiguous groups, sizes differing by
    at most one (the first [n mod shards] groups get the extra
    replica). Raises [Invalid_argument] if [shards < 1] or
    [shards > length replicas]. *)
val partition : shards:int -> int list -> int list list

(** Size of the largest group when [n] replicas split into [shards]
    groups — what a single-shard transaction's message cost should be
    compared against (explain does this). *)
val probe_group_size : n:int -> shards:int -> int

(** [create ~shards ~info ?shared ~factory net ~replicas ~clients]
    builds the sharded instance: [factory] is invoked once per group
    with the observability objects every group shares ([shared], or
    fresh ones) and that group's replicas. *)
val create :
  shards:int ->
  info:Core.Technique.info ->
  ?shared:Common.shared ->
  factory:
    (Common.shared ->
    Sim.Network.t ->
    replicas:int list ->
    clients:int list ->
    Core.Technique.instance) ->
  Sim.Network.t ->
  replicas:int list ->
  clients:int list ->
  Core.Technique.instance
