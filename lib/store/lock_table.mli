(** Strict two-phase locking (paper §4.4.1, [BHG87]).

    Shared/exclusive locks with FIFO wait queues. A request that would wait
    is first checked against the waits-for graph; if enqueueing it would
    close a cycle the request is refused with [`Deadlock] and not enqueued
    (the caller is expected to abort the transaction). Locks are held until
    [release_all] — strictness is the caller's obligation: release only at
    commit or abort. *)

type mode = S | X

type grant = [ `Granted | `Waiting | `Deadlock ]

type t

val create : unit -> t

(** [acquire t ~txn ~key mode ~granted] requests a lock. [`Granted] means
    the lock is held now ([granted] was already called synchronously);
    [`Waiting] means [granted] fires when the lock is eventually conferred;
    [`Deadlock] means the request was refused. Lock upgrades (S held, X
    requested) are supported. Re-acquiring a held lock in the same or a
    weaker mode is granted immediately. *)
val acquire :
  t -> txn:int -> key:Operation.key -> mode -> granted:(unit -> unit) -> grant

(** Release every lock held or requested by [txn], conferring pending
    requests that become grantable. *)
val release_all : t -> txn:int -> unit

(** Current holders of [key], sorted by transaction id (for tests). *)
val holders : t -> Operation.key -> (int * mode) list

(** Number of requests currently waiting (for tests/stats). *)
val waiting_count : t -> int

(** Total (txn, key) locks currently held, over all keys. *)
val held_count : t -> int
