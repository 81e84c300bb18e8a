(** Virtual time for the discrete-event simulator.

    Time is an integer number of microseconds since the start of the
    simulation. Integer time keeps runs exactly deterministic and replayable
    (no floating-point drift in event ordering). *)

type t = private int

val zero : t
val infinity : t

(** Constructors. *)

val of_us : int -> t
val of_ms : int -> t
val of_sec : float -> t

(** Accessors. *)

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

(** Arithmetic. [sub] saturates at [zero]. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> int -> t
val max : t -> t -> t
val min : t -> t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val pp : Format.formatter -> t -> unit
val to_string : t -> string
