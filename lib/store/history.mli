(** Global history of committed transactions (paper §5.1).

    Each record notes, for one committed transaction, the versions of the
    logical items it read and the versions its writes installed. Protocol
    implementations report these from the replica where the transaction
    executed; {!Serializability.check} decides whether the resulting
    history is 1-copy serializable. *)

type record = {
  tid : int;
  reads : (Operation.key * int) list;  (** version read *)
  writes : (Operation.key * int) list;  (** version installed *)
  replica : int;  (** where the transaction executed *)
  committed_at : Sim.Simtime.t;
}

type t

val create : unit -> t
val add : t -> record -> unit

(** Convenience: record a commit from an {!Apply.result}. *)
val add_result :
  t -> tid:int -> replica:int -> at:Sim.Simtime.t -> Apply.result -> unit

val records : t -> record list
val length : t -> int

(** [on_add t f] runs [f] on every subsequently added record — the
    consistency audit layer indexes commits incrementally this way. *)
val on_add : t -> (record -> unit) -> unit

(** Cross-shard transactions split into per-group sub-transactions under
    fresh tids; {!Protocols.Sharded} records the parentage here so
    post-hoc analyses (snapshot-skew detection, session checkers) can
    reassemble the client-visible transaction from its parts. *)
val link_parent : t -> parent:int -> sub:int -> unit

val parent_of : t -> sub:int -> int option

(** Sub tids of a cross-shard parent, in creation order. *)
val subs_of : t -> parent:int -> int list
