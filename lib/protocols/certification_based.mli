(** Certification-based database replication (paper §5.4.2, [KA98]).

    The transaction executes optimistically on shadow copies at the
    client's local server — no coordination before or during execution.
    When it completes, its readset (with versions) and writeset travel in
    one atomic broadcast; on delivery every replica runs the same
    deterministic certification test in the same total order
    ({!Core.Certification}), so all sites commit or abort the transaction
    identically with no further agreement round. Aborts (certification
    failures) are the price of optimism under contention. The delegate
    reports the outcome to the client after certifying — the technique is
    eager despite its optimism. Observed signature: RE EX AC END.

    Settings ({!schema}): [certify_time] is the simulated cost of the
    certification test at each replica (default 0: certification is
    instantaneous). [optimistic] processes transactions at {e
    optimistic} delivery ([KPAS99a]): the certification test runs during
    the ordering protocol; if the spontaneous order matches the
    definitive one the transaction terminates without paying
    [certify_time] after delivery. The verdict is always computed
    against the definitive order, so correctness is unaffected — only
    latency. *)

(** The technique's settings: key, type, default and doc, resolved by
    [--set certification.KEY=VALUE]. *)
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

(** Certification aborts, read from the instance's
    [certification_aborts_total] counters: each group's first replica
    (every replica of a group reaches the same verdicts), summed over the
    groups of a sharded instance. *)
val aborts : Core.Technique.instance -> int

val info : Core.Technique.info
