(** At-most-once filter over per-origin sequence numbers.

    Each origin numbers its messages 0, 1, 2, ...; they may arrive out of
    order and more than once. The filter keeps a high-water mark per
    origin plus the gaps below it, so its size is bounded by the messages
    still missing, not by the messages ever seen. *)

type t

(** A filter for origins [0 .. nodes-1]. *)
val create : nodes:int -> t

(** [fresh t ~origin ~seq] records the arrival of [seq] from [origin];
    [true] iff it had not arrived before. *)
val fresh : t -> origin:int -> seq:int -> bool

(** Distinct (origin, seq) pairs recorded so far. *)
val count : t -> int
