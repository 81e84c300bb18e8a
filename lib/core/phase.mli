(** The five generic phases of the abstract replication protocol
    (paper §2.2, Figure 1). Techniques are compared by the order in which
    they pass through these phases — skipping, merging or looping some of
    them (Figure 16). *)

type t =
  | Request  (** RE: the client submits an operation *)
  | Server_coordination  (** SC: replicas synchronise/order the operation *)
  | Execution  (** EX: the operation is executed *)
  | Agreement_coordination  (** AC: replicas agree on the result *)
  | Response  (** END: the outcome is transmitted back to the client *)

(** All five phases in canonical order. *)
val all : t list

(** Short code as used in the paper's figures: RE, SC, EX, AC, END. *)
val code : t -> string

val long_name : t -> string
val of_code : string -> t option
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Print a phase sequence, space-separated (a Figure 16 row). *)
val pp_sequence : Format.formatter -> t list -> unit
