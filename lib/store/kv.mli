(** Per-replica versioned key-value store.

    Each logical item [X] has a physical copy [Xi] on every replica (paper
    §4.1). A copy carries a version number that increases by one per
    installed write; replication protocols that keep copies consistent
    install identical (value, version) pairs everywhere, which is what the
    serializability checker and the convergence checker rely on. *)

type t

val create : unit -> t

(** [read t k] is the current (value, version) of [k]; missing items read
    as [(0, 0)]. *)
val read : t -> Operation.key -> int * int

(** [write t k v] installs [v] as the next version of [k] and returns that
    version number. *)
val write : t -> Operation.key -> int -> int

(** [install t k ~value ~version] forces a specific version, used when
    applying another replica's writeset. Installing a version older than
    the current one is ignored (last-writer-wins on version). *)
val install : t -> Operation.key -> value:int -> version:int -> unit

(** [force t k ~value ~version] overwrites the copy unconditionally, even
    with an older version. Reconciliation uses this to make the agreed
    after-commit order authoritative over tentative local commits. *)
val force : t -> Operation.key -> value:int -> version:int -> unit

(** [reset t] drops every copy. A replica rejoining after a crash uses
    this to discard tentative writes that never reached the group before
    a state transfer rebuilds the database from a surviving copy. *)
val reset : t -> unit

val version : t -> Operation.key -> int
val keys : t -> Operation.key list

(** Sorted (key, (value, version)) dump, for convergence comparison. *)
val snapshot : t -> (Operation.key * (int * int)) list

val equal : t -> t -> bool

(** [copy t] duplicates the copies but not the watchers: a copy is
    scratch state (state transfer, convergence snapshots), not a live
    replica store. *)
val copy : t -> t

(** [on_update t f] registers [f] to run whenever a copy actually
    changes: on every {!write}, on an {!install} that is not ignored,
    and on every {!force}. The consistency audit layer uses this to
    observe per-replica apply times without the protocols knowing. *)
val on_update : t -> (Operation.key -> value:int -> version:int -> unit) -> unit

(** [on_reset t f] registers [f] to run after every {!reset}, which
    notifies no {!on_update} watcher. *)
val on_reset : t -> (unit -> unit) -> unit

val pp : Format.formatter -> t -> unit
