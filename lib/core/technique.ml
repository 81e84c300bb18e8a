(** The common interface and classification metadata of a replication
    technique.

    The metadata fields are the classification dimensions the paper uses:
    Figure 5 classifies distributed-systems techniques by failure
    transparency and server determinism, Figure 6 classifies database
    techniques by update propagation (eager/lazy) and update location
    (primary/update-everywhere), and Figure 16 gives each technique's phase
    sequence and consistency class. *)

type community = Distributed_systems | Databases

type propagation = Eager | Lazy

type ownership = Primary | Update_everywhere

type info = {
  name : string;
  community : community;
  propagation : propagation;
  ownership : ownership;
  requires_determinism : bool;
      (** replicas must produce identical results from identical inputs *)
  failure_transparent : bool;
      (** a replica crash is invisible to the client (no resubmission) *)
  strong_consistency : bool;
      (** linearisability (DS) or 1-copy serialisability (DB) *)
  expected_phases : Phase.t list;  (** the technique's Figure 16 row *)
  expected_messages : n:int -> int;
      (** §5 claim: point-to-point messages one update transaction costs
          with [n] replicas, as realised by this implementation's
          group-communication stack (transport acks excluded; see
          {!Sim.Msg_dag.summary}) *)
  expected_steps : int;
      (** §5 claim: communication-step depth of the critical path from
          the client's request to its reply *)
  section : string;  (** paper section describing it *)
}

(** The outcome of one request, delivered to the client's callback. *)
type reply = {
  rid : int;
  committed : bool;
  value : int option;  (** last value read, when the request read data *)
  at : Sim.Simtime.t;
  replica : int;  (** replica that produced the response *)
}

(** A running replicated system: the uniform handle the examples, tests and
    benchmarks drive. Each protocol module exposes
    [create : ... -> instance]. *)
type instance = {
  info : info;
  submit : client:int -> Store.Operation.request -> (reply -> unit) -> unit;
  read_at :
    (client:int ->
    replica:int ->
    Store.Operation.request ->
    (reply -> unit) ->
    unit)
    option;
      (** Explicit read path: execute a read-only request locally at a
          chosen replica, bypassing the technique's update machinery. The
          routing tier uses it for read/write splitting; [None] means the
          technique has no local read path and reads must go through
          [submit]. Calling it again with the same request id is a
          resend (retry-on-failover) — the first reply still wins. *)
  read_targets : Store.Operation.request -> int list;
      (** Replicas able to serve the given read-only request through
          [read_at]. Full replication: every replica; a sharded instance:
          the owning group for a single-shard read, [[]] for a
          cross-shard read (no single replica holds all the keys — the
          router must fall back to [submit]). *)
  replica_store : int -> Store.Kv.t;
  history : Store.History.t;
  spans : Phase_span.t;  (** the per-transaction phase recorder *)
  metrics : Sim.Metrics.t;  (** the instance's metrics registry *)
  replicas : int list;
  groups : int list list;
      (** replication groups: each inner list is the replica set holding
          one copy of (a partition of) the database, so convergence is
          judged within a group, never across groups. Full replication
          is the single group [[replicas]]; a sharded instance has one
          group per shard. *)
}

let pp_info ppf i =
  let propagation = match i.propagation with Eager -> "eager" | Lazy -> "lazy" in
  let ownership =
    match i.ownership with
    | Primary -> "primary copy"
    | Update_everywhere -> "update everywhere"
  in
  Format.fprintf ppf "%s (%s, %s, %s): %a" i.name
    (match i.community with
    | Distributed_systems -> "distributed systems"
    | Databases -> "databases")
    propagation ownership Phase.pp_sequence i.expected_phases
