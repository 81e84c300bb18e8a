(** Active replication — the state-machine approach (paper §3.2,
    [Sch90]).

    Clients address the server group through an atomic broadcast; every
    replica deterministically executes every request in delivery order and
    replies; the client takes the first answer. RE and SC merge into the
    broadcast; there is no agreement-coordination phase. Figure 16 row:
    RE SC EX END. Failures are fully transparent; the price is the
    determinism constraint (non-deterministic choices are resolved by a
    seed derived from the request id, identically at every replica).

    Settings ({!schema}): [batch_window] is the sequencer-side request
    batching window (see {!Group.Abcast_seq.create_group}).

    A read-only request sent through [read_at] (the routed read path,
    {!Common.read_at}) is executed at the chosen replica alone, without
    ordering: such reads stay {e sequentially consistent} but may
    return old values, so they are no longer {e linearizable} — the
    §2.2 distinction ("sequential consistency allows, under some
    conditions, to read old values"). [submit] orders every request
    (linearizable). *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set active.KEY=VALUE]. *)
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
