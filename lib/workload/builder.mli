(** What the CLI adds on top of {!Runner.run}, which is the one way to
    describe a run: the workload {!spec} from the flat flags, the fault
    schedule from [--crash]/[--recover] ({!crash_schedule}), and the
    deterministic single-transaction {!probe} harness shared by
    [replisim trace] and [replisim explain], and the checks of
    [explain --check] ({!section5}) and [profile --check]
    ({!profile_verdicts}). *)

(** Spec from the CLI's flat flags. *)
val spec :
  ?keys:int ->
  ?skew:float ->
  ?updates:float ->
  ?ops:int ->
  ?txns:int ->
  ?think:Sim.Simtime.t ->
  ?shards:int ->
  ?cross:float ->
  ?shape:Spec.shape ->
  ?flash:Spec.flash_crowd ->
  unit ->
  Spec.t

(** The [(replica, at)] crashes and recoveries of the command line as
    {!Runner.fault}s for [n] replicas, checked by {!Runner.check_faults}:
    an event naming a replica outside [0 .. n-1] (ids from [n] on are
    clients), a negative time, or a recovery that follows no crash of the
    same replica is an error whose message starts with the flag
    ([--crash 3@10ms: ...]). *)
val crash_schedule :
  n:int ->
  crashes:(int * Sim.Simtime.t) list ->
  recoveries:(int * Sim.Simtime.t) list ->
  (Runner.fault list, string) result

(** {2 Single-transaction probe} *)

type probe = {
  p_engine : Sim.Engine.t;
  p_net : Sim.Network.t;
  p_inst : Core.Technique.instance;
  p_rid : int;
  p_client : int;
  p_replicas : int list;
}

(** Deterministic single-transaction harness: [n] replicas and one
    client submitting one transaction ([ops], default [Incr ("x", 1)]);
    spans are finalized at quiescence. The links are [net] (default
    {!Sim.Network.default_config}: no drops) with a constant 1 ms
    latency. *)
val probe :
  ?seed:int ->
  ?n:int ->
  ?net:Sim.Network.config ->
  ?ops:Store.Operation.op list ->
  ?until:Sim.Simtime.t ->
  Runner.factory ->
  probe

(** Messages, causal soundness and the {!Sim.Msg_dag} summary of the
    probe's transaction. *)
val probe_summary :
  probe -> Sim.Msg_dag.msg list * bool * Sim.Msg_dag.summary

(** {2 The §5 message-cost check} *)

(** One technique's probe as [replisim explain] measures it. *)
type explained = {
  x_info : Core.Technique.info;
  x_shards : int;
  x_group : int;
      (** replicas in the group the probe transaction runs in: [n]
          unsharded, else the largest of the [x_shards] groups *)
  x_msgs : Sim.Msg_dag.msg list;
  x_sound : bool;  (** the probe's message DAG is causally sound *)
  x_summary : Sim.Msg_dag.summary;
}

(** Probe the technique of [entry] under the resolved configuration on
    [n] replicas (seed default 7). *)
val explain :
  ?seed:int -> n:int -> Protocols.Registry.entry -> Protocols.Config.t ->
  explained

(** The §5 message count, taken at the probe's group size: a
    single-shard transaction runs inside one replication group. *)
val expected_messages : explained -> int

(** ["section5"]: the probe replied over a causally sound trace with
    exactly {!expected_messages} messages and the expected step depth. *)
val section5 : explained -> Verdict.t

(** {2 The profiler's self-check} *)

(** What [replisim profile --check] judges in a report: ["json"] (its
    JSON parses), ["bucket_events"] (the buckets' events sum to the
    events executed; the off-loop ["trace:export"] bucket is no engine
    event), and ["wall_shares"] and ["alloc_shares"] (each sums to 1
    within 0.02, unless nothing of that resource was measured). *)
val profile_verdicts : Sim.Profiler.report -> Verdict.t list
