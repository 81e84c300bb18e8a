(** Hash table on int keys with a monomorphic equality and an identity
    hash. Its iteration order differs from [Hashtbl]'s, so use it only
    for tables that are never iterated or whose iteration order does not
    matter. *)

include Hashtbl.S with type key = int
