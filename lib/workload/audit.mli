(** Consistency audit layer: client-visible staleness as a measured
    signal.

    The paper's eager/lazy split (§4–§5) is ultimately a claim about
    what clients observe — eager techniques pay coordination messages
    to keep the inconsistency window at zero, lazy ones trade it for a
    staleness window — but none of the other instrumentation measures
    that window. This module does, from the outside of the protocols:

    - every installed write is identified by its (key, version, value)
      triple; the first install anywhere stamps its {e origin}, and
      each later install at another replica yields one {e visibility
      latency} sample (how long that site stayed stale for the write);
    - a per-replica [version_lag] gauge (registered on the shared
      {!Sim.Timeseries} sampler) counts the installed versions a
      replica is still missing relative to its group — the
      [lag_undrained] saturation detector fires if it never reaches
      zero;
    - online session-guarantee checkers per client session —
      {e read-your-writes} and {e monotonic reads} — using interval
      order (operation A precedes B only if A's reply preceded B's
      submission), with violation counters in the instance's
      {!Sim.Metrics} registry;
    - a cross-shard {e snapshot-skew} detector counting committed
      cross-shard read pairs that observed a torn cross-shard write
      (the read-side face of the certification partial-commit caveat
      in PROTOCOLS.md).

    Two windows appear in the summary, and they gate differently:

    - [session_window_max_ms] — the largest real-time staleness behind
      a session-guarantee violation. Eager techniques must measure
      exactly zero here ([replisim audit --check] enforces it): their
      agreement phase runs before the reply, so a client can never
      miss its own covered writes. It is the measured form of the
      paper's zero inconsistency window.
    - [post_commit_max_ms] — the largest gap between a write's commit
      reply and its last install inside its group. Lazy techniques
      must measure strictly positive here (propagation runs after the
      reply, by definition); eager ones typically measure ~0 but may
      show sub-millisecond residue because the final decision round is
      concurrent with the reply under jittered links. That residue is
      reported, not gated — it is exactly the theory/practice gap
      Cecchet et al. describe.

    Global (cross-session) stale reads are reported with their
    real-time staleness distribution but never gated: a stale local
    read at an eager primary-copy system is still 1-copy serializable
    (it serializes before the write), which is why it survives the
    paper's correctness criterion while being observably stale. *)

type t

type summary = {
  writes : int;  (** distinct installed (key, version, value) triples *)
  fully_replicated : int;  (** triples installed at every group member *)
  visibility_ms : Sim.Summary.t;  (** origin-to-other-replica install lag *)
  visibility_by_replica : (int * Sim.Summary.t) list;
  post_commit_max_ms : float;
      (** worst commit-reply-to-last-install gap (the lazy window) *)
  stale_reads : int;
      (** committed reads that missed a write whose commit preceded
          their submission (any session) *)
  staleness_ms : Sim.Summary.t;  (** real-time staleness of those reads *)
  ryw_violations : int;  (** read-your-writes violations (per session) *)
  mr_violations : int;  (** monotonic-reads violations (per session) *)
  session_window_max_ms : float;
      (** largest staleness behind a session violation — the gated
          inconsistency window; exactly 0 for eager techniques *)
  reads_checked : int;
  commits : int;
  skew_pairs : int;  (** torn cross-shard (reader, writer) pairs *)
  cross_txns : int;  (** committed cross-shard transactions examined *)
  final_lag : (int * int) list;
      (** per-replica residual version lag after quiescence *)
  drained : bool;  (** every replica's final lag is zero *)
}

(** [create ~engine ~metrics ~history ~groups ~store_of ()] hooks the
    audit into a built instance: installs a {!Store.Kv.on_update}
    watcher on every replica's store and a {!Store.History.on_add}
    subscription. Must run before any transaction is submitted.
    [shards] > 1 additionally arms the snapshot-skew detector with the
    run's {!Store.Shard_map} placement. *)
val create :
  engine:Sim.Engine.t ->
  metrics:Sim.Metrics.t ->
  history:Store.History.t ->
  groups:int list list ->
  store_of:(int -> Store.Kv.t) ->
  ?shards:int ->
  unit ->
  t

(** Register the per-replica [version_lag] gauge on a sampler. *)
val register_series : t -> Sim.Timeseries.t -> unit

(** [note_reply t ~client ~rid ~committed ~submitted_at ~at] feeds one
    client reply through the checkers. Aborted replies are ignored;
    committed cross-shard parents are reassembled from their linked
    sub-transactions (see {!Store.History.subs_of}). *)
val note_reply :
  t ->
  client:int ->
  rid:int ->
  committed:bool ->
  submitted_at:Sim.Simtime.t ->
  at:Sim.Simtime.t ->
  unit

(** Summarise after the run (including its quiescence drain): computes
    the replication/skew aggregates and updates the audit gauges in the
    metrics registry. *)
val finalize : t -> summary

(** The largest residual lag in [final_lag] (0 when drained). *)
val max_lag : summary -> int

type violation = Undrained | Eager_window | No_lazy_window | Unsharded_skew

(** What [replisim audit --check] rejects in a run of a technique of the
    given [propagation] over [shards] groups, each with its message: lag
    left after quiescence; an eager session-guarantee violation; a lazy
    run with no post-commit window; snapshot skew at [shards = 1]. *)
val violations :
  propagation:Core.Technique.propagation ->
  shards:int ->
  summary ->
  (violation * string) list
