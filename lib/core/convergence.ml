(** Replica-state convergence checks.

    Eager techniques must leave all replicas identical at quiescence; lazy
    techniques may diverge while propagation is outstanding but must
    converge once reconciliation has drained. *)

(** [converged stores] is true when all stores hold identical snapshots. *)
let converged = function
  | [] | [ _ ] -> true
  | first :: rest -> List.for_all (Store.Kv.equal first) rest

(** Items on which two stores disagree: (key, (value, version) of a,
    (value, version) of b). *)
let diff a b =
  let sa = Store.Kv.snapshot a and sb = Store.Kv.snapshot b in
  let find k l = List.assoc_opt k l in
  let keys =
    List.sort_uniq String.compare (List.map fst sa @ List.map fst sb)
  in
  List.filter_map
    (fun k ->
      let va = Option.value ~default:(0, 0) (find k sa) in
      let vb = Option.value ~default:(0, 0) (find k sb) in
      if va = vb then None else Some (k, va, vb))
    keys

(** Number of items whose value differs between [a] and [b] — the
    staleness measure used in the eager-vs-lazy experiment. *)
let stale_items a b =
  List.length
    (List.filter (fun (_, (va, _), (vb, _)) -> va <> vb) (diff a b))
