(** One builder path from the CLI (and the bench binary) to a running
    cluster.

    Collects everything a run needs — workload spec, cluster shape,
    network config, arrival process, crash/recover schedule, fault
    scenario, sampler interval, deadline — in one declarative value, and
    funnels every subcommand through {!run} / {!run_with_instance}
    instead of each re-implementing the {!Runner} plumbing. Also hosts
    the deterministic single-transaction {!probe} harness shared by
    [replisim trace] and [replisim explain]. *)

type t = {
  seed : int;
  n_replicas : int;
  n_clients : int;
  spec : Spec.t;
  net : Sim.Network.config;
  arrival : Runner.arrival;
  failures : Runner.failure list;
  partitions : Runner.partition list;
  scenario : Scenario.t option;  (** applied to the network before the run *)
  deadline : Sim.Simtime.t;
  sample : Sim.Simtime.t option;  (** resource-sampler interval *)
  profiler : Sim.Profiler.t option;  (** attached to the engine when set *)
  tracing : bool;  (** span/trace recording master switch (default on) *)
  analyze : bool;
      (** run the post-run convergence/serializability oracles
          (default on; see {!Runner.run_with_instance}) *)
  audit : bool;
      (** attach the consistency audit layer (default off; see
          {!Audit} and {!Runner.run_with_instance}) *)
  router : Router.config option;
      (** route requests through the client-side routing tier (default
          off; see {!Router} and {!Runner.run_with_instance}) *)
}

val make :
  ?seed:int ->
  ?replicas:int ->
  ?clients:int ->
  ?spec:Spec.t ->
  ?net:Sim.Network.config ->
  ?arrival:Runner.arrival ->
  ?failures:Runner.failure list ->
  ?partitions:Runner.partition list ->
  ?scenario:Scenario.t ->
  ?deadline:Sim.Simtime.t ->
  ?sample:Sim.Simtime.t ->
  ?profiler:Sim.Profiler.t ->
  ?tracing:bool ->
  ?analyze:bool ->
  ?audit:bool ->
  ?router:Router.config ->
  unit ->
  t

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

(** Pair [(replica, at)] crashes with [(replica, at)] recoveries into a
    failure schedule for [n] replicas. An event naming a replica outside
    [0 .. n-1] (ids from [n] on are clients) or a negative time is an
    error, and so is a recovery without a matching earlier crash of the
    same replica. *)
val crash_schedule :
  n:int ->
  crashes:(int * Sim.Simtime.t) list ->
  recoveries:(int * Sim.Simtime.t) list ->
  (Runner.failure list, string) result

val run : t -> Runner.factory -> Runner.result
val run_with_instance : t -> Runner.factory -> Runner.result * Core.Technique.instance

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
