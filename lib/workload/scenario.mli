(** Fault-injection campaign harness — the "failures assumptions" half of
    the paper's §6 performance study.

    A {!t} is a declarative failure scenario: a named schedule of crash,
    recovery, partition/heal and message-loss events — {!Runner.fault}s,
    which {!Runner.run} schedules through [?faults]. {!run_one} executes one technique
    under one scenario with {!Runner} and then judges the run with
    post-hoc {e invariant oracles} — 1-copy serializability, replica
    convergence after heal/recover, Figure-16 signature conformance of
    every committed transaction, and a liveness check — each against
    {e per-technique expectations} (e.g. 2PC-based techniques may block
    on a coordinator crash; failure-transparent techniques must show
    zero client resubmissions). {!run_campaign} sweeps
    techniques × scenarios × seeds. *)

(** One scheduled fault event — {!Runner.fault}, re-exported so a
    scenario can be written with this module's constructors. *)
type event = Runner.fault =
  | Crash of { at : Sim.Simtime.t; replica : int }
  | Recover of { at : Sim.Simtime.t; replica : int }
  | Partition of { at : Sim.Simtime.t; group : int list; heal_at : Sim.Simtime.t }
  | Loss of { at : Sim.Simtime.t; probability : float; until : Sim.Simtime.t }

type t = {
  name : string;  (** CLI identifier, e.g. ["crash-recover"] *)
  description : string;
  events : event list;
}

(** Schedule every event of the scenario on the network's engine with
    {!Runner.schedule_faults} — the scheduler behind {!Runner.run}'s
    [?faults]. Passing [~faults:t.events] to {!Runner.run} is the same
    schedule at the same point; [apply] serves callers that install the
    scenario from their own [tune] hook. *)
val apply : t -> Sim.Network.t -> unit

(** [bursts ~from ~probability ~burst ~gap ~count] — [count] loss windows
    of length [burst] separated by [gap], starting at [from]. *)
val bursts :
  from:Sim.Simtime.t ->
  probability:float ->
  burst:Sim.Simtime.t ->
  gap:Sim.Simtime.t ->
  count:int ->
  event list

(** {2 Built-in scenario library}

    The builtins assume the campaign cluster shape (3 replicas, ids
    0–2): [crash] (replica 0 down at 100 ms, stays down),
    [crash-recover] (replica 0 down 100–600 ms), [backup-crash-recover]
    (replica 2 down 100–600 ms), [partition-heal] (replica 2 isolated
    50–600 ms), [loss] (sustained 5 % message loss), [burst-loss]
    (3 × 100 ms windows of 30 % loss), and [chaos] (crash-recover +
    partition + background loss composed). On a smaller cluster some of
    their events name a client; {!Runner.check_faults} finds them, and
    {!Runner.run} refuses them. *)

val builtins : t list

val find : string -> t option

(** {2 Oracles and expectations} *)

(** What a technique is allowed/required to do under a scenario, derived
    from its {!Core.Technique.info} classification plus the per-technique
    knowledge baked into this module (which commit protocol it uses,
    whether it can catch a recovered replica up). *)
type expectation = {
  transparent : bool;
      (** failure transparent — client resubmissions must be 0 *)
  may_block : bool;
      (** some transactions may stay unanswered at the deadline (2PC-based
          techniques under coordinator crash) *)
  strong : bool;  (** committed history must stay 1-copy serializable *)
  recovers : bool;
      (** a replica that crashes and recovers (or is partitioned and
          healed) must converge with the survivors by quiescence *)
  signatures : Core.Phase.t list list;
      (** acceptable Figure-16 signatures for committed transactions *)
}

(** [expectation ~key info scenario] — [key] is the registry key
    (["active"], ["eager-primary"], …). *)
val expectation : key:string -> Core.Technique.info -> t -> expectation

(** Judge a finished run against the expectation: one verdict each from
    the oracles ["serializable"], ["convergence"], ["signatures"],
    ["liveness"] and ["transparency"]. The instance is the one the run
    produced ({!Runner.run_with_instance}); the signature oracle reads its
    span records. *)
val oracles :
  key:string ->
  Core.Technique.info ->
  t ->
  Runner.result ->
  Core.Technique.instance ->
  Verdict.t list

(** {2 Resource-timeline check} *)

(** What [replisim timeline --check] judges in a run under [events]
    that sampled [series] and whose saturation detectors reported
    [findings]: one ["fault_window"] verdict per finding, which must
    overlap a fault's active span plus 300 ms for the protocol to drain
    (an unrecovered crash never ends), and ["partition_backlog"]: under
    a partition, some group-stack queue peaks at >= 2 inside the first
    partition window and ends the run at <= 1. *)
val timeline_verdicts :
  event list ->
  Sim.Timeseries.series list ->
  Sim.Saturation.finding list ->
  Verdict.t list

(** {2 Campaign driver} *)

type outcome = {
  technique : string;
  scenario : string;
  seed : int;
  result : Runner.result;
  verdicts : Verdict.t list;
  ok : bool;  (** all verdicts ok *)
}

(** Workload used by default for campaign runs: 100 % updates (so every
    committed transaction has a full Figure-16 signature), 2 clients,
    25 transactions each. *)
val default_spec : Spec.t

val run_one :
  ?seed:int ->
  ?n_replicas:int ->
  ?spec:Spec.t ->
  ?deadline:Sim.Simtime.t ->
  key:string ->
  info:Core.Technique.info ->
  factory:Runner.factory ->
  t ->
  outcome

(** Sweep techniques × scenarios × seeds (default seeds: [[11]]; default
    cluster: 3 replicas — raise [n_replicas] for sharded campaigns,
    where each replication group needs its own replicas). Each technique
    brings the spec its runs use, generated for its shard count. *)
val run_campaign :
  ?seeds:int list ->
  ?n_replicas:int ->
  ?deadline:Sim.Simtime.t ->
  techniques:
    (string * Core.Technique.info * Runner.factory * Spec.t) list ->
  scenarios:t list ->
  unit ->
  outcome list

(** {2 Reporting} *)

val csv_header : string
val csv_row : outcome -> string
val to_csv : Format.formatter -> outcome list -> unit

(** One JSON object per outcome (technique, scenario, seed, counters,
    verdicts) — the campaign's machine-readable trace. *)
val jsonl_row : outcome -> string

val pp_outcome : Format.formatter -> outcome -> unit
