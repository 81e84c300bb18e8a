(** A group view: the composition of the group as perceived at some time
    (paper §3.1). Views are installed in sequence [v0, v1, ...]; members
    are kept sorted. *)

type t = { id : int; members : int list }

(** The initial view [v0] over [members]. *)
val initial : int list -> t

(** The successor view with the given membership. *)
val next : t -> members:int list -> t

val is_member : t -> int -> bool
