(** What the CLI adds on top of {!Runner.run}, which is the one way to
    describe a run: the workload {!spec} from the flat flags, the fault
    schedule from [--crash]/[--recover] ({!crash_schedule}), and the
    deterministic single-transaction {!probe} harness shared by
    [replisim trace] and [replisim explain]. *)

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

(** Deterministic single-transaction harness: constant-latency links
    (default 1 ms), no drops, [n] replicas and one client submitting one
    transaction ([ops], default [Incr ("x", 1)]); spans are finalized at
    quiescence. *)
val probe :
  ?seed:int ->
  ?n:int ->
  ?latency:Sim.Simtime.t ->
  ?ops:Store.Operation.op list ->
  ?until:Sim.Simtime.t ->
  Runner.factory ->
  probe

(** Messages, causal soundness and the {!Sim.Msg_dag} summary of the
    probe's transaction. *)
val probe_summary :
  probe -> Sim.Msg_dag.msg list * bool * Sim.Msg_dag.summary
