(** Executing transaction operations against a replica's store (the EX
    phase of the functional model).

    Execution records the versions read and written so the global history
    can be checked for 1-copy serializability, and produces the writeset
    that eager/lazy protocols propagate to the other copies. *)

type result = {
  reads : (Operation.key * int * int) list;  (** key, value, version read *)
  writes : (Operation.key * int * int) list;
      (** key, value, version written *)
}

(** [execute ?choose kv ops] runs [ops] in order against [kv].
    [choose] resolves each [Write_random] operation (default: the constant
    0, which makes execution deterministic). *)
val execute :
  ?choose:(Operation.key -> int) -> Kv.t -> Operation.op list -> result

(** Install a writeset produced elsewhere, version numbers included. *)
val apply_writes : Kv.t -> (Operation.key * int * int) list -> unit
