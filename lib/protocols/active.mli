(** Active replication — the state-machine approach (paper §3.2,
    [Sch90]).

    Clients address the server group through an atomic broadcast; every
    replica deterministically executes every request in delivery order and
    replies; the client takes the first answer. RE and SC merge into the
    broadcast; there is no agreement-coordination phase. Figure 16 row:
    RE SC EX END. Failures are fully transparent; the price is the
    determinism constraint (non-deterministic choices are resolved by a
    seed derived from the request id, identically at every replica). *)

type config = {
  abcast_impl : Group.Abcast.impl;
  passthrough : bool;  (** skip low-level acks on loss-free runs *)
  local_reads : bool;
      (** serve read-only requests directly from the client's local
          replica, without ordering, and acknowledge writes only once the
          {e local} replica has executed them. This keeps each client's
          program order intact at its own replica, so executions remain
          {e sequentially consistent} — but reads may return old values,
          so they are no longer {e linearizable}: exactly the §2.2
          distinction ("sequential consistency allows, under some
          conditions, to read old values"). Default [false]
          (linearizable). *)
  batch_window : Sim.Simtime.t;
      (** sequencer-side request batching window (0 = off); see
          {!Group.Abcast_seq.create_group} *)
}

val default_config : config

(** Declarative key/type/default/doc descriptors for every [config]
    field, resolved by the CLI's [--set active.key=value]. *)
val schema : Config.schema

(** Build the record from a resolved configuration. *)
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
