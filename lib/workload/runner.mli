(** Closed-loop experiment driver: builds a simulated cluster, runs a
    technique under a workload and a fault schedule until its event
    queue drains (or a hard stop past the deadline: a parked channel
    link's probes, {!Group.Rchan.quiet_after}, and ten seconds), and
    reports the metrics the paper's promised performance
    study calls for. {!run} / {!run_with_instance} are the one way to
    describe a run, and {!fault} the one way to describe a failure
    assumption. *)

type factory =
  Sim.Network.t -> replicas:int list -> clients:int list -> Core.Technique.instance

(** One scheduled fault. Times are absolute simulation times; replica
    ids are the runner's replica numbering ([0 .. n_replicas-1]). *)
type fault =
  | Crash of { at : Sim.Simtime.t; replica : int }
  | Recover of { at : Sim.Simtime.t; replica : int }
      (** bring a crashed replica back ({!Sim.Network.recover}) *)
  | Partition of { at : Sim.Simtime.t; group : int list; heal_at : Sim.Simtime.t }
      (** isolate [group] from the complement between [at] and [heal_at] *)
  | Loss of { at : Sim.Simtime.t; probability : float; until : Sim.Simtime.t }
      (** raise the per-message drop probability to [probability] inside
          the window, restoring the drop probability the network had
          when the faults were scheduled at [until]; a window until
          {!Sim.Simtime.infinity} lasts the whole run *)

(** [check_faults ~n_replicas faults] is [Error (fault, reason)] for a
    fault a cluster of [n_replicas] cannot run: the first, in list order,
    that crashes, recovers or partitions an endpoint outside
    [0 .. n_replicas-1] (ids from [n_replicas] on are clients) or has a
    negative time; failing that, the earliest [Recover] that no crash of
    the same replica strictly before it pairs with (each crash pairs with
    one recovery). *)
val check_faults : n_replicas:int -> fault list -> (unit, fault * string) result

(** [crash 2@100ms], [partition [2] 50ms..600ms], … *)
val pp_fault : Format.formatter -> fault -> unit

(** Schedule every fault on the network's engine, in list order. *)
val schedule_faults : Sim.Network.t -> fault list -> unit

(** How clients issue transactions: [`Closed] waits for each reply plus
    the spec's think time before the next submission (the default);
    [`Poisson rate] submits with exponential inter-arrival times at
    [rate] transactions per second per client, independent of replies —
    an open-loop load generator for contention studies. *)
type arrival = [ `Closed | `Poisson of float ]

type result = {
  committed : int;
  aborted : int;
  unanswered : int;  (** requests with no reply at the deadline *)
  latency_ms : Sim.Summary.t;  (** committed-transaction response times *)
  update_latency_ms : Sim.Summary.t;
  read_latency_ms : Sim.Summary.t;
  makespan : Sim.Simtime.t;  (** last response time *)
  throughput : float;  (** committed transactions per simulated second *)
  messages : int;  (** network messages sent during the run *)
  messages_per_txn : float;
  max_response_gap : Sim.Simtime.t;
      (** longest interval between consecutive responses — the
          unavailability window when a failure schedule is active *)
  converged : bool;  (** alive replicas identical at quiescence *)
  serializable : bool;  (** 1-copy serializability of the global history *)
  phase_ms : (Core.Phase.t * Sim.Summary.t) list;
      (** per-phase span durations across all transactions, in canonical
          phase order (phases the technique never entered are absent) *)
  metrics : Sim.Metrics.snapshot;
      (** the instance's metrics registry at quiescence *)
  resubmissions : int;
      (** client resubmissions after reply timeouts — 0 for
          failure-transparent techniques *)
  dropped : int;  (** messages lost to crashes, partitions or link loss *)
  dropped_loss : int;  (** dropped by the link-loss coin flip *)
  dropped_crashed : int;  (** dropped because an endpoint was crashed *)
  dropped_partitioned : int;  (** dropped at a partition boundary *)
  series : Sim.Timeseries.series list;
      (** sampled resource time-series — empty unless [?sample] was
          given *)
  events : int;
      (** engine events executed — deterministic for a given seed *)
  drained : bool;
      (** the event queue emptied before the hard stop (the deadline,
          then {!Group.Rchan.quiet_after} and ten seconds): every
          layer's work, timers included, ended *)
  wall_s : float;
      (** wall-clock seconds spent inside the event loop —
          {e non-deterministic}; zero it (or use a normalizer) before
          structural byte-determinism comparisons *)
  audit : Audit.summary option;
      (** consistency audit summary — [None] unless the run was started
          with [~audit:true] *)
  router : Router.stats option;
      (** routing-tier stats — [None] unless the run was started with
          [?router] *)
}

val run :
  ?seed:int ->
  ?n_replicas:int ->
  ?n_clients:int ->
  ?net:Sim.Network.config ->
  ?tune:(Sim.Network.t -> replicas:int list -> clients:int list -> unit) ->
  ?arrival:arrival ->
  ?faults:fault list ->
  ?deadline:Sim.Simtime.t ->
  ?sample:Sim.Simtime.t ->
  ?profiler:Sim.Profiler.t ->
  ?tracing:bool ->
  ?analyze:bool ->
  ?audit:bool ->
  ?router:Router.config ->
  spec:Spec.t ->
  factory ->
  result

(** Like {!run}, but also returns the instance that ran, for post-hoc
    oracles that need its spans, history, or stores. [result] itself
    stays plain data (structurally comparable).

    [tune] runs on the fresh network before anything is built; [faults]
    (default none) are then scheduled ({!schedule_faults}), still before
    the factory builds the technique, so a fault due at the same instant
    as a timer armed during the build runs first. A fault list that
    fails {!check_faults} raises [Invalid_argument], and so does a
    [spec] whose [shards] differs from the number of replication groups
    the factory built ([Core.Technique.instance.groups]).

    [profiler] attaches a {!Sim.Profiler} to the engine (self-time /
    allocation attribution; its engine stats and meta counters are
    filled in at the end of the run). [tracing] (default [true]) is the
    master span/trace switch ({!Sim.Network.set_tracing}) — switching it
    off skips span materialisation without changing the event schedule.
    [analyze] (default [true]): when [false], the post-run convergence
    and serializability oracles are skipped and both fields report
    [true] vacuously — for throughput benchmarks where the oracle cost
    would dwarf the run itself. [audit] (default [false]) attaches the
    consistency audit layer ({!Audit}) before the first submission and
    fills [result.audit]. [router] routes every request through the
    client-side routing tier ({!Router}) — read/write splitting,
    failover retries and optional session stickiness; omitted, requests
    go straight into the technique's [submit] and the event schedule is
    byte-identical to the pre-router path. *)
val run_with_instance :
  ?seed:int ->
  ?n_replicas:int ->
  ?n_clients:int ->
  ?net:Sim.Network.config ->
  ?tune:(Sim.Network.t -> replicas:int list -> clients:int list -> unit) ->
  ?arrival:arrival ->
  ?faults:fault list ->
  ?deadline:Sim.Simtime.t ->
  ?sample:Sim.Simtime.t ->
  ?profiler:Sim.Profiler.t ->
  ?tracing:bool ->
  ?analyze:bool ->
  ?audit:bool ->
  ?router:Router.config ->
  spec:Spec.t ->
  factory ->
  result * Core.Technique.instance

val pp_result : Format.formatter -> result -> unit
