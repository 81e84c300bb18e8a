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
    of read-heavy workloads — the quorum discussion of §5.4.1. *)

type config = {
  read_one_write_all : bool;
  lock_quorum : int option;
      (** lock at this many replicas instead of all of them (rotating from
          the delegate). Must exceed n/2 so that conflicting transactions'
          quorums intersect; execution, completion and 2PC still involve
          every replica — the paper's §5.4.1 point that "quorums only
          determine how many sites ... need to be contacted in order to
          obtain the locks; the phases of the protocol are the same".
          [None] (default) locks everywhere. *)
  lock_timeout : Sim.Simtime.t;
  client_retry : Sim.Simtime.t;
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

val info : Core.Technique.info
