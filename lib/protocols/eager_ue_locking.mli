(** Eager update everywhere with distributed locking (paper §4.4.1
    single-operation, §5.4.1 multi-operation).

    The client's local server acts as delegate. For every operation it
    requests the operation's locks at {e all} replicas (the SC phase); once
    every replica granted them the operation executes at all sites on a
    per-transaction shadow (EX); the SC/EX pair repeats per operation.
    After the last operation a 2PC decides the transaction's fate at all
    sites (AC), locks are released, and the delegate answers the client.

    Local lock tables detect local waits-for cycles and refuse the closing
    request; genuinely distributed deadlocks (opposite grant orders at two
    sites) are resolved by the delegate's lock timeout. Both resolutions
    abort the transaction, which the client may resubmit as a new one.

    With [read_one_write_all] set, read operations lock and execute only at
    the delegate ([BHG87]'s read-one/write-all), halving the message load
    of read-heavy workloads — the quorum discussion of §5.4.1.

    Settings ({!schema}): [lock_quorum] locks at this many replicas
    instead of all of them (rotating from the delegate). It must exceed
    n/2 so that conflicting transactions' quorums intersect; execution,
    completion and 2PC still involve every replica — the paper's §5.4.1
    point that "quorums only determine how many sites ... need to be
    contacted in order to obtain the locks; the phases of the protocol
    are the same". [none] (default) locks everywhere. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set eager-ue-locking.KEY=VALUE]. *)
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
