(** The transaction model (paper §4.1 and §5.1).

    A transaction is a sequence of read and write operations over logical
    data items. A one-operation transaction (a single [op]) models the
    stored-procedure interface of §2.2/§4.1; a longer list models the
    interactive transactions of §5. *)

type key = string

type op =
  | Read of key
  | Write of key * int
  | Incr of key * int  (** read-modify-write: add the delta to the item *)
  | Write_random of key
      (** a non-deterministic write: the executing replica chooses the
          value, so replicas that execute it independently diverge —
          exactly what semi-active and passive replication exist to
          handle (§3.3, §3.4) *)

(** A client request: one transaction, with an id unique within its run. *)
type request = { rid : int; client : int; ops : op list }

(** [request net ~client ops] — a request with the run's next [rid]
    ({!Sim.Network.fresh_rid}): the n-th request built on [net] is rid n. *)
val request : Sim.Network.t -> client:int -> op list -> request

(** Keys read by an operation (for lock acquisition). *)
val read_keys : op -> key list

(** Keys written by an operation. *)
val write_keys : op -> key list

val request_is_update : request -> bool

(** Sorted, de-duplicated read/write key sets of a whole request. *)
val read_set : request -> key list

val write_set : request -> key list
