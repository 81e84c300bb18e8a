(** Replica-state convergence checks.

    Eager techniques must leave all replicas identical at quiescence; lazy
    techniques may diverge while propagation is outstanding but must
    converge once reconciliation has drained. *)

(** [converged stores] is true when all stores hold identical
    (value, version) snapshots. *)
val converged : Store.Kv.t list -> bool

(** Items on which two stores disagree:
    (key, (value, version) in the first, (value, version) in the second). *)
val diff :
  Store.Kv.t ->
  Store.Kv.t ->
  (Store.Operation.key * (int * int) * (int * int)) list

(** Number of items whose {e value} differs — the staleness measure used
    by the eager-vs-lazy experiment (perf4). *)
val stale_items : Store.Kv.t -> Store.Kv.t -> int
