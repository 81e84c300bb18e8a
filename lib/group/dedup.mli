(** At-most-once filter over per-origin sequence numbers, on the
    receiving side of {!Rchan}.

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

(** [prefix t ~origin ~from] is the first seq at or above [from] that
    has not arrived from [origin]. When every seq below [from] has
    arrived, it is one more than the end of the contiguous run of seqs
    [origin] has delivered; a caller that passes its last answer back
    walks each seq once. *)
val prefix : t -> origin:int -> from:int -> int

(** Distinct (origin, seq) pairs recorded so far. *)
val count : t -> int
