(** Eager update everywhere based on atomic broadcast (paper §4.4.2,
    [SR96, KA98, KPAS99a]).

    The client submits to its local server, which forwards the whole
    transaction through an ABCAST (the SC phase — note the contrast with
    active replication, where the {e client} broadcasts). Every replica
    executes transactions in delivery order; conflicting operations are
    thereby ordered identically everywhere and no agreement coordination is
    needed. The delegate alone answers the client. Figure 16 row:
    RE SC EX END. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set eager-ue-abcast.KEY=VALUE]. *)
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
